package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// dropFig5 cuts the Fig 5 block (wall-clock compile times, rows sorted
// by them) out of qcloud-analyze's stdout; everything else is a pure
// function of the flags.
func dropFig5(out []byte) []byte {
	start := bytes.Index(out, []byte("\n== Fig 5 "))
	if start < 0 {
		return out
	}
	next := bytes.Index(out[start+1:], []byte("\n== Fig "))
	if next < 0 {
		return out[:start]
	}
	return append(append([]byte(nil), out[:start]...), out[start+1+next:]...)
}

// TestProfilingLeavesOutputUntouched runs a small study twice, plain
// and with -cpuprofile/-memprofile: profiling only samples the process,
// so stdout must match byte for byte and both profiles must be written.
func TestProfilingLeavesOutputUntouched(t *testing.T) {
	bin := build(t)
	dir := t.TempDir()
	run := func(extra ...string) []byte {
		t.Helper()
		args := append([]string{"-seed", "5", "-jobs", "300", "-workers", "2", "-fig5-large", "16"}, extra...)
		cmd := exec.Command(bin, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, stderr.Bytes())
		}
		return dropFig5(out)
	}
	plain := run()
	if !bytes.Contains(plain, []byte("== Fig 16 ")) || bytes.Contains(plain, []byte("== Fig 5 ")) {
		t.Fatalf("unexpected stdout shape (want every figure but Fig 5 after the cut):\n%s", plain)
	}
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	profiled := run("-cpuprofile", cpu, "-memprofile", mem)
	if !bytes.Equal(plain, profiled) {
		t.Fatalf("stdout differs with profiling on (%d vs %d bytes)", len(plain), len(profiled))
	}
	for _, p := range []string{cpu, mem} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Fatalf("profile %s missing or empty (err %v)", p, err)
		}
	}
}

// build compiles qcloud-analyze into a temporary directory.
func build(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds and runs the binary")
	}
	bin := filepath.Join(t.TempDir(), "qcloud-analyze")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

// TestFigureSelection: an unknown -fig id is refused with exit status 2
// and named, before anything runs; figures that do not read the trace
// are drawn without one, so a trace path that does not exist is never
// opened.
func TestFigureSelection(t *testing.T) {
	bin := build(t)
	var stderr bytes.Buffer
	cmd := exec.Command(bin, "-fig", "3,99")
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 || len(out) != 0 || !bytes.Contains(stderr.Bytes(), []byte(`"99"`)) {
		t.Fatalf("-fig 3,99: %v, stdout %q, stderr %q; want exit status 2 naming 99 and no output", err, out, stderr.Bytes())
	}
	missing := filepath.Join(t.TempDir(), "no-such-trace.json")
	out, err = exec.Command(bin, "-fig", "6", "-trace", missing).CombinedOutput()
	if err != nil || !bytes.HasPrefix(out, []byte("\n== Fig 6 ")) || bytes.Count(out, []byte("== Fig")) != 1 {
		t.Fatalf("-fig 6 with a missing trace: %v\n%s", err, out)
	}
	if out, err := exec.Command(bin, "-fig", "3", "-trace", missing).CombinedOutput(); err == nil {
		t.Fatalf("-fig 3 read a trace that does not exist:\n%s", out)
	}
}
