// Package trace is on deadcheck's allowlist.
package trace

// Oracle has no caller, but its package is allowlisted.
func Oracle() {}
