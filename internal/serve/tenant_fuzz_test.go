package serve

import (
	"encoding/json"
	"os"
	"testing"
)

// FuzzParseTenantsFile feeds arbitrary bytes to the tenants-file parser. It
// must never panic, and whatever it accepts must build a registry, carry a
// usable token bucket for every rate-limited tenant, and hot-reload into a
// running registry.
func FuzzParseTenantsFile(f *testing.F) {
	example, err := os.ReadFile("../../examples/tenants.json")
	if err != nil {
		f.Fatal(err)
	}
	base, err := parseTenantsFile(example)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		list, err := parseTenantsFile(data)
		if err != nil {
			return
		}
		if _, err := NewTenants(list); err != nil {
			t.Fatalf("accepted list does not build: %v", err)
		}
		var declared tenantsFile
		if err := json.Unmarshal(data, &declared); err != nil {
			t.Fatalf("accepted bytes do not decode: %v", err)
		}
		for i, tn := range list {
			if tn.RatePerSec <= 0 {
				continue
			}
			if tn.Burst < 1 {
				t.Fatalf("tenant %q: rate %g with burst %d", tn.Name, tn.RatePerSec, tn.Burst)
			}
			if declared.Tenants[i].Burst == 0 && float64(tn.Burst) < tn.RatePerSec {
				t.Fatalf("tenant %q: defaulted burst %d below rate %g", tn.Name, tn.Burst, tn.RatePerSec)
			}
		}
		reg, err := NewTenants(base)
		if err != nil {
			t.Fatal(err)
		}
		gen := reg.Generation()
		if err := reg.Reload(list); err != nil {
			t.Fatalf("accepted list does not reload: %v", err)
		}
		if reg.Generation() != gen+1 {
			t.Fatalf("reload left generation at %d, want %d", reg.Generation(), gen+1)
		}
	})
}
