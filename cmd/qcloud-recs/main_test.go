package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestRecsGolden pins qcloud-recs -seed 11: every section is a pure
// function of the seed, so stdout hashes to one value, and the worker
// count, which only spreads the placement replays and trajectory
// sweeps, does not change a byte of it.
func TestRecsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "qcloud-recs")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	run := func(workers string) []byte {
		t.Helper()
		var stdout, stderr bytes.Buffer
		cmd := exec.Command(bin, "-seed", "11", "-workers", workers)
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("-workers %s: %v\n%s", workers, err, stderr.Bytes())
		}
		return stdout.Bytes()
	}
	serial := run("1")
	const golden = "2effca6a1ae4d0a31f2dce77f666781977c882f43d8dbc8f34534df291823eb8"
	if got := fmt.Sprintf("%x", sha256.Sum256(serial)); got != golden {
		t.Fatalf("stdout (%d bytes) hashes to %s, want %s:\n%s", len(serial), got, golden, serial)
	}
	if parallel := run("2"); !bytes.Equal(parallel, serial) {
		t.Fatalf("-workers 2 stdout differs from -workers 1:\n%s\nvs\n%s", parallel, serial)
	}
}
