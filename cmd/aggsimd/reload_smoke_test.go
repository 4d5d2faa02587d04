package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"pimdsm"
)

// writeTenantsAtomic replaces the tenants file via rename, the way a careful
// operator (or config-management agent) would, so a reload never reads a
// half-written file.
func writeTenantsAtomic(t *testing.T, path, body string) {
	t.Helper()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(tmp, path); err != nil {
		t.Fatal(err)
	}
}

// authOK reports whether the client's key authenticates right now.
func authOK(c *pimdsm.ServiceClient) bool {
	_, err := c.Jobs()
	return err == nil
}

func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTenantsReloadSIGHUP drives the hot-reload path end to end through a
// real daemon: rewriting the file alone changes nothing, SIGHUP swaps it so a
// revoked key 401s on its next request, and a malformed rewrite plus SIGHUP
// is rejected with the previous registry still serving.
func TestTenantsReloadSIGHUP(t *testing.T) {
	tmp := t.TempDir()
	tenantsFile := writeTenantsFile(t, tmp) // quiet + noisy
	logFile := filepath.Join(tmp, "aggsimd.log")
	d := startDaemon(t,
		"-addr", "127.0.0.1:0", "-workers", "1", "-sweep-workers", "1",
		"-tenants-file", tenantsFile, "-log", logFile)
	defer d.shutdown(t)
	hup := func() {
		t.Helper()
		if err := syscall.Kill(os.Getpid(), syscall.SIGHUP); err != nil {
			t.Fatal(err)
		}
	}

	quiet := tenantClient(d.addr, quietKey)
	noisy := tenantClient(d.addr, noisyKey)
	writeTenantsAtomic(t, tenantsFile, fmt.Sprintf(`{"tenants": [
		{"name": "quiet", "key": %q}
	]}`, quietKey))
	time.Sleep(100 * time.Millisecond)
	if !authOK(noisy) {
		t.Fatal("a file rewrite alone must not swap the registry")
	}

	hup()
	pollUntil(t, "SIGHUP reload", func() bool { return !authOK(noisy) })
	if !authOK(quiet) {
		t.Fatal("retained tenant lost access across the SIGHUP reload")
	}

	// A malformed rewrite is rejected; the running registry keeps serving
	// the last good tenant set.
	writeTenantsAtomic(t, tenantsFile, `{"tenants": [{"name": "broken"`)
	hup()
	pollUntil(t, "malformed reload rejection", func() bool {
		b, _ := os.ReadFile(logFile)
		return bytes.Contains(b, []byte("tenants_reload_rejected"))
	})
	if !authOK(quiet) {
		t.Fatal("malformed reload must keep the previous registry live")
	}
	if authOK(noisy) {
		t.Fatal("malformed reload resurrected a revoked key")
	}
}
