package profile

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	prof, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	sink := 0
	for i := 0; i < 1e6; i++ {
		sink += i
	}
	_ = sink
	if err := prof.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if info, err := os.Stat(p); err != nil || info.Size() == 0 {
			t.Fatalf("%s: not written (%v)", p, err)
		}
	}
}

func TestStartWithoutPaths(t *testing.T) {
	prof, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartBadPath(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "missing", "cpu.pprof"), ""); err == nil {
		t.Fatal("expected an error for an uncreatable CPU profile path")
	}
}
