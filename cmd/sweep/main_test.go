package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"repro/internal/experiments"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("16, 32,64 ,128")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{16, 32, 64, 128}
	if len(got) != len(want) {
		t.Fatalf("parsed %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parsed %v, want %v", got, want)
		}
	}
	if _, err := parseInts("1,x,3"); err == nil {
		t.Error("bad value accepted")
	}
	if vals, err := parseInts(" , ,"); err != nil || len(vals) != 0 {
		t.Errorf("empty fields: %v %v", vals, err)
	}
}

func TestBaseConfig(t *testing.T) {
	for _, net := range []string{"pure", "bcast", "atac", "atac+"} {
		cfg, err := experiments.BuildConfig(experiments.Geometry{Net: net, Cores: 64, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", net, err)
		}
		if cfg.Caches.DirSlices != cfg.Clusters() {
			t.Errorf("%s: slices mismatch", net)
		}
	}
	if _, err := experiments.BuildConfig(experiments.Geometry{Net: "ring", Cores: 64, Seed: 1}); err == nil {
		t.Error("unknown network accepted")
	}
	// The sweep front end threads -tech/-optics through the same Geometry.
	cfg, err := experiments.BuildConfig(experiments.Geometry{Net: "atac+", Cores: 64, Seed: 1, Tech: " 7NM ", Optics: "optimistic"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Tech != "7nm" || cfg.Optics != "optimistic" {
		t.Errorf("scenario not threaded: %s/%s", cfg.Tech, cfg.Optics)
	}
}

// TestRunnerFlags checks that sweep accepts every runner flag the shared
// binder owns and that each lands in the bound RunnerFlags.
func TestRunnerFlags(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		want func(*experiments.RunnerFlags)
	}{
		{"-jobs=3", func(f *experiments.RunnerFlags) { f.Jobs = 3 }},
		{"-cache-dir=/tmp/c", func(f *experiments.RunnerFlags) { f.CacheDir = "/tmp/c" }},
		{"-no-cache", func(f *experiments.RunnerFlags) { f.NoCache = true }},
		{"-cache-max-bytes=4096", func(f *experiments.RunnerFlags) { f.CacheMaxBytes = 4096 }},
		{"-run-timeout=1m", func(f *experiments.RunnerFlags) { f.RunTimeout = time.Minute }},
		{"-retries=5", func(f *experiments.RunnerFlags) { f.Retries = 5 }},
		{"-grace=7s", func(f *experiments.RunnerFlags) { f.Grace = 7 * time.Second }},
	} {
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		o := bindFlags(fs)
		want := o.runner
		tc.want(&want)
		if err := fs.Parse([]string{tc.arg}); err != nil {
			t.Errorf("%s: %v", tc.arg, err)
		} else if o.runner != want {
			t.Errorf("%s: bound %+v, want %+v", tc.arg, o.runner, want)
		}
	}
	// A deleted runner flag must fail to parse, not be silently ignored.
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	bindFlags(fs)
	if err := fs.Parse([]string{"-shards", "2"}); err == nil {
		t.Error("-shards 2 parsed; want an unknown-flag error")
	}
}

// TestLoadSweepMatchesFig3 pins that the cached load sweep measures
// exactly what Fig 3 does: at 16 cores, Fig 3's loads as integer percents
// give one row per scheme whose mean_lat equals the golden Fig 3 cell.
func TestLoadSweepMatchesFig3(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "golden_16core.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden struct{ Fig3 *experiments.Table }
	if err := json.Unmarshal(data, &golden); err != nil || golden.Fig3 == nil {
		t.Fatalf("golden fig3: %v", err)
	}

	r := experiments.NewRunner(experiments.Options{Cores: 16, Scale: 1, Seed: 42})
	r.Cache = nil // hermetic: never recall results from a REPRO_CACHE dir
	var buf bytes.Buffer
	loadSweep(context.Background(), r, "uniform", []int{1, 2, 4, 8, 12, 16}, &buf)

	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	schemes := golden.Fig3.Columns[1:]
	if want := 1 + len(golden.Fig3.Rows)*len(schemes); len(rows) != want {
		t.Fatalf("%d CSV lines, want %d:\n%v", len(rows), want, rows)
	}
	for i, grow := range golden.Fig3.Rows {
		for j, scheme := range schemes {
			row := rows[1+i*len(schemes)+j]
			pc, err := strconv.Atoi(row[0])
			if err != nil {
				t.Fatal(err)
			}
			if load := strconv.FormatFloat(float64(pc)/100, 'f', 3, 64); load != grow[0] || row[1] != scheme {
				t.Errorf("row %v: want load %s scheme %s", row, grow[0], scheme)
			}
			if row[4] != grow[1+j] {
				t.Errorf("load %s %s: mean_lat %s, Fig 3 cell %s", grow[0], scheme, row[4], grow[1+j])
			}
		}
	}
}
