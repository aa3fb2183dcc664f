package iface

// Sizer is satisfied by lib.Box, which lives in another package.
type Sizer interface{ Size() int }

// Measure is called from package main.
func Measure(s Sizer) int { return s.Size() }

// Shape has a method lib.Box shares, but Box lacks Perimeter.
type Shape interface {
	Area() int
	Perimeter() int
}
