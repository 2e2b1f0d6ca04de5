package main

import (
	"flag"
	"io"
	"testing"
	"time"

	"repro/internal/experiments"
)

// TestRunnerFlags checks that atacd accepts every runner flag the
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
		fs := flag.NewFlagSet("atacd", flag.ContinueOnError)
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
	fs := flag.NewFlagSet("atacd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	bindFlags(fs)
	if err := fs.Parse([]string{"-shards", "2"}); err == nil {
		t.Error("-shards 2 parsed; want an unknown-flag error")
	}
}

// TestGraceDefault pins atacd's longer drain window: a daemon drains its
// whole queue, so it keeps 30 s where the batch front ends keep 15 s.
func TestGraceDefault(t *testing.T) {
	if o := bindFlags(flag.NewFlagSet("atacd", flag.ContinueOnError)); o.runner.Grace != 30*time.Second {
		t.Errorf("grace default %v, want 30s", o.runner.Grace)
	}
}
