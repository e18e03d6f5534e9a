//go:build !amd64

package rng

// silentKernel is false: only amd64 has the eight-lane step, and Silent
// walks one triple at a time.
var silentKernel = false

// silent8 is never called off amd64 (silentKernel is false).
func silent8(*OnOff, *silentCall, uint64) (int, int64) { panic("rng: no silent8 kernel") }
