//go:build race

package router_test

func init() { raceBuild = true }
