package pardict

import (
	"os/exec"
	"strings"
	"testing"
)

// TestInternalPackagesHaveImporters keeps unused packages out of internal/:
// every pardict/internal package must be imported by non-test code of this
// module, or be a test oracle named below.
func TestInternalPackagesHaveImporters(t *testing.T) {
	oracles := map[string]bool{
		// Brute-force reference the differential and fuzz suites compare
		// every engine against.
		"pardict/internal/naive": true,
	}
	out, err := exec.Command("go", "list", "-f", `{{.ImportPath}} {{join .Imports " "}}`, "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	imported := map[string]bool{}
	var internal []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(line)
		if strings.HasPrefix(fields[0], "pardict/internal/") {
			internal = append(internal, fields[0])
		}
		for _, imp := range fields[1:] {
			imported[imp] = true
		}
	}
	if len(internal) == 0 {
		t.Fatalf("go list found no internal packages:\n%s", out)
	}
	for _, pkg := range internal {
		if !imported[pkg] && !oracles[pkg] {
			t.Errorf("%s has no non-test importer: delete it, or list it here if tests use it as an oracle", pkg)
		}
	}
}
