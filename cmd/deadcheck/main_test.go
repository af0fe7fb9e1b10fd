package main

import (
	"slices"
	"strings"
	"testing"
)

// The testdata tree is two modules: mod, whose internal/lib holds one
// declaration of each kind deadcheck judges, and caller, a second
// module directory that calls into mod the way perfbench/ calls into
// the root module.
const (
	modDir    = "testdata/mod"
	callerDir = "testdata/caller"
	libFile   = modDir + "/internal/lib/lib.go"
)

// findings runs the check over dirs and returns the flagged names,
// after holding every finding to the `file:line name` form.
func findings(t *testing.T, dirs ...string) map[string]bool {
	t.Helper()
	found, err := check(dirs)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, f := range found {
		file, name, ok := strings.Cut(f, " ")
		if !ok || !strings.HasPrefix(file, modDir+"/") || !strings.Contains(file, ".go:") {
			t.Fatalf("finding %q is not `file:line name` relative to the working directory", f)
		}
		names[name] = true
	}
	if !slices.Contains(found, libFile+":10 lib.NoCaller") {
		t.Errorf("findings lack %q: %v", libFile+":10 lib.NoCaller", found)
	}
	return names
}

func TestFlagged(t *testing.T) {
	got := findings(t, modDir, callerDir)
	for _, name := range []string{
		"lib.NoCaller",   // exported, no caller at all
		"lib.OnlyTested", // only lib_test.go calls it
		"lib.unused",     // unexported, no caller
	} {
		if !got[name] {
			t.Errorf("%s not flagged; findings: %v", name, got)
		}
	}
	for _, name := range []string{
		"lib.Used", "lib.helper", "lib.Name",
		"lib.Name.String", // reached through fmt.Stringer
		"trace.Oracle",    // allowlisted package
		"lib.ForCaller",   // called from the second module only
	} {
		if got[name] {
			t.Errorf("%s flagged; it is used or allowlisted", name)
		}
	}
	if len(got) != 3 {
		t.Errorf("want exactly 3 findings, got %v", got)
	}
}

// TestSecondModuleCounts shows the caller directory is what keeps
// ForCaller alive: checked alone, mod reports it.
func TestSecondModuleCounts(t *testing.T) {
	if got := findings(t, modDir); !got["lib.ForCaller"] {
		t.Errorf("lib.ForCaller not flagged without its caller module; findings: %v", got)
	}
}
