package api

import "testing"

func BenchmarkKeys(b *testing.B) {
	for b.Loop() {
		Keys(map[string]int{"a": 1})
	}
}
