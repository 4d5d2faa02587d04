package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestTenantsReload covers the hot-reload contract: retained tenants keep
// their live state and usage under the new declaration, removed tenants stop
// authenticating, added tenants start fresh, and the generation counts
// successful swaps.
func TestTenantsReload(t *testing.T) {
	reg := twoTenants(t, []Tenant{
		{Name: "a", Key: "key-aaaaaaaa", RatePerSec: 2, Burst: 4},
		{Name: "b", Key: "key-bbbbbbbb"},
	})
	// Give a some history to survive the swap.
	reg.Authenticate("key-aaaaaaaa")
	reg.states["a"].tokens = 3

	err := reg.Reload([]Tenant{
		{Name: "a", Key: "key-aaaaaaaa", RatePerSec: 2, Burst: 2}, // burst shrank
		{Name: "c", Key: "key-cccccccc"},                          // added
		// b removed
	})
	if err != nil {
		t.Fatal(err)
	}
	if g := reg.Generation(); g != 1 {
		t.Fatalf("generation = %d, want 1", g)
	}
	if _, ok := reg.Authenticate("key-bbbbbbbb"); ok {
		t.Fatal("removed tenant b still authenticates")
	}
	if name, ok := reg.Authenticate("key-cccccccc"); !ok || name != "c" {
		t.Fatalf("added tenant: Authenticate = %q, %v", name, ok)
	}
	if _, ok := reg.Authenticate("key-aaaaaaaa"); !ok {
		t.Fatal("retained tenant a stopped authenticating")
	}
	snap, ok := reg.Get("a")
	if !ok {
		t.Fatal("retained tenant a vanished")
	}
	if snap.Usage.Requests != 2 { // 1 before reload + 1 after
		t.Fatalf("a's usage did not survive reload: %d requests, want 2", snap.Usage.Requests)
	}
	if tok := reg.states["a"].tokens; tok != 2 {
		t.Fatalf("a's tokens = %v, want clamped to new burst 2", tok)
	}
}

// TestTenantsReloadTokenTransitions pins the bucket edge cases: gaining a
// rate limit grants a full fresh bucket, losing it zeroes the bucket.
func TestTenantsReloadTokenTransitions(t *testing.T) {
	reg := twoTenants(t, []Tenant{
		{Name: "free", Key: "key-ffffffff"},
		{Name: "limited", Key: "key-llllllll", RatePerSec: 1, Burst: 3},
	})
	reg.states["limited"].tokens = 1
	reg.states["limited"].lastRefill = time.Unix(1000, 0)

	if err := reg.Reload([]Tenant{
		{Name: "free", Key: "key-ffffffff", RatePerSec: 5, Burst: 5}, // newly limited
		{Name: "limited", Key: "key-llllllll"},                       // limit removed
	}); err != nil {
		t.Fatal(err)
	}
	if tok := reg.states["free"].tokens; tok != 5 {
		t.Fatalf("newly limited tenant starts with %v tokens, want full burst 5", tok)
	}
	if st := reg.states["limited"]; st.tokens != 0 || !st.lastRefill.IsZero() {
		t.Fatalf("unlimited tenant kept bucket state: tokens=%v lastRefill=%v", st.tokens, st.lastRefill)
	}
}

// TestTenantsReloadRejectsInvalid is the all-or-nothing half: a malformed
// list (or file) changes nothing — same tenants, same generation.
func TestTenantsReloadRejectsInvalid(t *testing.T) {
	reg := twoTenants(t, []Tenant{{Name: "a", Key: "key-aaaaaaaa"}})

	bad := [][]Tenant{
		{{Name: "", Key: "key-xxxxxxxx"}},                                    // empty name
		{{Name: "x", Key: "short"}},                                          // short key
		{{Name: "x", Key: "key-xxxxxxxx"}, {Name: "x", Key: "key-yyyyyyyy"}}, // dup name
		{{Name: "x", Key: "key-xxxxxxxx", RatePerSec: 1e19}},                 // rate ceiling overflows int
	}
	for i, list := range bad {
		if err := reg.Reload(list); err == nil {
			t.Fatalf("bad list %d accepted", i)
		}
	}
	if g := reg.Generation(); g != 0 {
		t.Fatalf("failed reloads bumped generation to %d", g)
	}
	if _, ok := reg.Authenticate("key-aaaaaaaa"); !ok {
		t.Fatal("failed reload lost the previous registry")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	os.WriteFile(path, []byte(`{"tenants":[{"name":"a","key":`), 0o644)
	if err := reg.ReloadFile(path); err == nil || !strings.Contains(err.Error(), "tenants file") {
		t.Fatalf("malformed tenants file: err = %v", err)
	}
	os.WriteFile(path, []byte(`{"tenants":[]}`), 0o644)
	if err := reg.ReloadFile(path); err == nil {
		t.Fatal("empty tenants file accepted by ReloadFile")
	}
	if g := reg.Generation(); g != 0 {
		t.Fatalf("rejected files bumped generation to %d", g)
	}

	os.WriteFile(path, []byte(`{"tenants":[{"name":"z","key":"key-zzzzzzzz"}]}`), 0o644)
	if err := reg.ReloadFile(path); err != nil {
		t.Fatal(err)
	}
	if g, n := reg.Generation(), reg.Len(); g != 1 || n != 1 {
		t.Fatalf("good file: generation %d len %d, want 1 and 1", g, n)
	}
	if name, ok := reg.Authenticate("key-zzzzzzzz"); !ok || name != "z" {
		t.Fatalf("reloaded tenant: Authenticate = %q, %v", name, ok)
	}
}
