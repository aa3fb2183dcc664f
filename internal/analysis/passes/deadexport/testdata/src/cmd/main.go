package main

import (
	"iface"
	"lib"
)

// Exported names in package main are never reported.
func Exported() {}

func main() {
	lib.Used()
	lib.Alive()
	f := lib.Value
	_ = f
	var s lib.Stack[int]
	s.Push(1)
	var x any = lib.Box{}
	if p, ok := x.(interface{ Probe() bool }); ok {
		p.Probe()
	}
	iface.Measure(lib.Box{})
	var _ iface.Shape
}
