package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestRunnerFlags checks that figures accepts every runner flag the
// shared binder owns and that each lands in the bound RunnerFlags.
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
		fs := flag.NewFlagSet("figures", flag.ContinueOnError)
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
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	bindFlags(fs)
	if err := fs.Parse([]string{"-shards", "2"}); err == nil {
		t.Error("-shards 2 parsed; want an unknown-flag error")
	}
}

// TestUnopenableCacheDirIsFatal pins that an explicit -cache-dir that
// cannot be opened stops the campaign with the fatal exit code instead of
// silently running every simulation uncached.
func TestUnopenableCacheDirIsFatal(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	o := bindFlags(fs)
	if err := fs.Parse([]string{"-cache-dir", filepath.Join(file, "cache"), "-cores", "16", "-only", "4", "-q"}); err != nil {
		t.Fatal(err)
	}
	if code := run(o); code != experiments.ExitFatal {
		t.Errorf("exit code %d, want %d", code, experiments.ExitFatal)
	}
}
