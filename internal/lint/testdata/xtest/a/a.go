// Package a is the package under test of the loader's external-test
// fixture: its one method beyond T lives in export_test.go.
package a

// T is the value package b hands out.
type T struct{ n int }
