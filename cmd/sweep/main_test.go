package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain doubles this test binary as the sweep command: re-exec'd with
// SWEEP_TEST_MAIN=1 it runs main() on its own arguments, so the tests
// drive the real flag set and exit paths.
func TestMain(m *testing.M) {
	if os.Getenv("SWEEP_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSweep runs the command on args in a subprocess and fails the test on
// a non-zero exit.
func runSweep(t *testing.T, args ...string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SWEEP_TEST_MAIN=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("sweep %v: %v\n%s", args, err, out)
	}
}

// TestCPUProfileLeavesArtifactsIdentical: -cpuprofile writes a profile
// outside -outdir, and the deterministic artifacts are byte-identical to a
// run without it.
func TestCPUProfileLeavesArtifactsIdentical(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join("..", "..", "specs", "fault-smoke.json")
	plain, profiled := filepath.Join(dir, "plain"), filepath.Join(dir, "profiled")
	prof := filepath.Join(dir, "cpu.pprof")
	runSweep(t, "-spec", spec, "-j", "1", "-outdir", plain)
	runSweep(t, "-spec", spec, "-j", "1", "-outdir", profiled, "-cpuprofile", prof)

	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Fatalf("cpuprofile not written: %v", err)
	}
	// ops.txt carries host wall-clock figures and differs run to run.
	for _, name := range []string{"results.json", "metrics.txt", "report.txt"} {
		a, err := os.ReadFile(filepath.Join(plain, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(profiled, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs with -cpuprofile", name)
		}
	}
	assertSameFiles(t, plain, profiled)
}

// assertSameFiles fails unless dirs a and b hold the same file names.
func assertSameFiles(t *testing.T, a, b string) {
	t.Helper()
	names := func(dir string) string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var s string
		for _, e := range ents {
			s += e.Name() + " "
		}
		return s
	}
	if na, nb := names(a), names(b); na != nb {
		t.Fatalf("outdir contents differ: %q vs %q", na, nb)
	}
}
