// Package api calls standard-library API from before and after its
// go.mod's go 1.22.
package api

import (
	"maps"
	"net/http"
	"slices"
)

// Keys sorts with slices.Sort (go1.21) the keys maps.Keys (go1.23)
// yields.
func Keys(m map[string]int) []string {
	keys := slices.AppendSeq([]string(nil), maps.Keys(m))
	slices.Sort(keys)
	return keys
}

// Server sets a struct field go1.24 added.
func Server() *http.Server {
	return &http.Server{Protocols: new(http.Protocols)}
}
