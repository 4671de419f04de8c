package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fakeServe writes an executable that prints usage as `pulphd serve -h`
// would, with the given flag lines.
func fakeServe(t *testing.T, flags ...string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pulphd")
	usage := "Usage of serve:\n" + strings.Join(flags, "\n") + "\n"
	script := "#!/bin/sh\ncat >&2 <<'EOF'\n" + usage + "EOF\nexit 2\n"
	if err := os.WriteFile(bin, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return bin
}

var (
	shardsFlag  = "  -shards int\n    \tshard count (default 4)"
	snapFlag    = "  -snapshot-every int\n    \trecords per snapshot (default 256)"
	walSyncFlag = "  -wal-sync\n    \tfsync every append"
	backendFlag = "  -im-backend string\n    \tbackend (default \"stored\")"
	workersFlag = "  -workers int\n    \tpool size"
	allFlags    = []string{shardsFlag, snapFlag, walSyncFlag, backendFlag, workersFlag}
)

func TestReadServeDefaults(t *testing.T) {
	d, err := readServeDefaults(fakeServe(t, allFlags...))
	if err != nil {
		t.Fatal(err)
	}
	// -wal-sync and -workers print no default: theirs is the zero value.
	want := serveDefaults{shards: 4, snapshotEvery: 256, backend: "stored"}
	if d.shards != want.shards || d.snapshotEvery != want.snapshotEvery || d.backend != want.backend ||
		d.walSync || d.workers != 0 || len(d.warnings) != 0 {
		t.Fatalf("readServeDefaults = %+v, want %+v", d, want)
	}
}

func TestReadServeDefaultsRefusesMissingFlags(t *testing.T) {
	for i, f := range allFlags[:4] {
		rest := append(append([]string{}, allFlags[:i]...), allFlags[i+1:]...)
		if d, err := readServeDefaults(fakeServe(t, rest...)); err == nil {
			t.Errorf("usage without %q read as %+v", strings.Fields(f)[0], d)
		}
	}
	d, err := readServeDefaults(fakeServe(t, allFlags[:4]...))
	if err != nil || len(d.warnings) != 1 {
		t.Fatalf("usage without -workers: %+v, %v; want one warning", d, err)
	}
}
