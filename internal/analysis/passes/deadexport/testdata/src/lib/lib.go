package lib

// Used is called from another package.
func Used() int { return 1 }

func Dead() {} // want `exported Dead has no non-test use`

// Value is only taken as a function value, never called.
func Value() int { return 2 }

// Box satisfies iface.Sizer, declared in another package.
type Box struct{ n int }

func (b Box) Size() int { return b.n }

// Probe satisfies only the anonymous interface of a type assertion.
func (b Box) Probe() bool { return b.n > 0 }

func (b Box) Stale() {} // want `exported Box\.Stale has no non-test use`

// Area matches a method of iface.Shape, which Box does not implement.
func (b Box) Area() int { return b.n } // want `exported Box\.Area has no non-test use`

// Stack is generic; Push is used only through an instantiation.
type Stack[T any] struct{ items []T }

func (s *Stack[T]) Push(v T) { s.items = append(s.items, v) }

func (s *Stack[T]) Pop() {} // want `exported Stack\.Pop has no non-test use`

// Audited is dead but carries a reasoned directive.
//
//kerncheck:ignore deadexport exercised by the suppression case
func Audited() {}

//kerncheck:ignore deadexprot a typo suppresses nothing // want `ignore directive names unknown analyzer "deadexprot"`
func Typo() {} // want `exported Typo has no non-test use`

//kerncheck:ignore deadexport Alive is used, so this suppresses nothing // want `ignore directive for deadexport suppresses nothing`
func Alive() {}
