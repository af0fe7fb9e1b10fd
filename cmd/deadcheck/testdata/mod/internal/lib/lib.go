// Package lib holds one declaration of each kind deadcheck judges.
package lib

// Used has a caller in main.
func Used() int { return helper() }

func helper() int { return 1 }

// NoCaller is exported and nothing calls it.
func NoCaller() {}

// OnlyTested is called by lib_test.go alone.
func OnlyTested() int { return 2 }

func unused() {}

// Name is printed by main, which reaches String only through
// fmt.Stringer.
type Name int

func (n Name) String() string { return "name" }

// ForCaller is called only from the second module, example.com/mod/caller.
func ForCaller() int { return 3 }
