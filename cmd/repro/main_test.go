package main

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles this test binary as the repro command: re-exec'd with
// REPRO_TEST_MAIN=1 it runs main() on its own arguments, so the tests
// drive the real flag set and exit paths.
func TestMain(m *testing.M) {
	if os.Getenv("REPRO_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runStage1 runs repro -quick on args in a subprocess and interrupts it as
// soon as stage [2/6] starts, by which point stage 1 has written
// table2.txt. It returns that file's contents.
func runStage1(t *testing.T, outdir string, args ...string) []byte {
	t.Helper()
	args = append([]string{"-quick", "-j", "1", "-outdir", outdir}, args...)
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REPRO_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "[2/6]") {
			if err := cmd.Process.Signal(os.Interrupt); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	io.Copy(io.Discard, stdout)
	// An interrupted repro exits 130 after flushing its host-side files.
	var exit *exec.ExitError
	if err := cmd.Wait(); err != nil && !(errors.As(err, &exit) && exit.ExitCode() == 130) {
		t.Fatalf("repro %v: %v\n%s", args, err, stderr.Bytes())
	}
	blob, err := os.ReadFile(filepath.Join(outdir, "table2.txt"))
	if err != nil {
		t.Fatalf("stage 1 artifact: %v\n%s", err, stderr.Bytes())
	}
	return blob
}

// TestCPUProfileLeavesArtifactsIdentical: -cpuprofile writes a profile
// outside -outdir, also for an interrupted run, and stage 1's artifact is
// byte-identical to a run without it.
func TestCPUProfileLeavesArtifactsIdentical(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "cpu.pprof")
	plain := runStage1(t, filepath.Join(dir, "plain"))
	profiled := runStage1(t, filepath.Join(dir, "profiled"), "-cpuprofile", prof)
	if !bytes.Equal(plain, profiled) {
		t.Error("table2.txt differs with -cpuprofile")
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Fatalf("cpuprofile not written: %v", err)
	}
}
