package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestRunnerFlagsRegisterAndOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	f := DefaultRunnerFlags()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	err := fs.Parse([]string{"-jobs", "3", "-cache-dir", dir,
		"-cache-max-bytes", "4096", "-run-timeout", "1m", "-retries", "5", "-grace", "7s"})
	if err != nil {
		t.Fatal(err)
	}
	r, closeRunner, err := f.Open(Options{Cores: 16, Scale: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer closeRunner()
	if r.Jobs != 3 || r.Retries != 5 || r.RunTimeout != time.Minute || !r.RecallFailures {
		t.Errorf("runner knobs not applied: jobs %d retries %d timeout %v recall %v",
			r.Jobs, r.Retries, r.RunTimeout, r.RecallFailures)
	}
	if f.Grace != 7*time.Second {
		t.Errorf("grace %v", f.Grace)
	}
	if r.Cache == nil || r.Cache.Dir() != dir || r.Cache.MaxBytes != 4096 {
		t.Fatalf("cache not opened at %s with its byte bound: %+v", dir, r.Cache)
	}
	if r.Journal == nil {
		t.Fatal("journal not opened beside the cache")
	}
	if _, err := os.Stat(r.Cache.JournalPath()); err != nil {
		t.Errorf("journal file: %v", err)
	}
}

func TestRunnerFlagsCacheResolution(t *testing.T) {
	// A directory below a regular file can never be created.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(file, "cache")
	env := filepath.Join(t.TempDir(), "env-cache")
	o := Options{Cores: 16, Scale: 1, Seed: 1}

	for _, tc := range []struct {
		name    string
		env     string
		flags   RunnerFlags
		wantErr bool
		wantDir string // "" = uncached
	}{
		{name: "explicit unopenable dir is fatal", flags: RunnerFlags{CacheDir: bad}, wantErr: true},
		{name: "default unopenable dir only warns", env: bad},
		{name: "REPRO_CACHE is the default", env: env, wantDir: env},
		{name: "-cache-dir beats REPRO_CACHE", env: bad, flags: RunnerFlags{CacheDir: env}, wantDir: env},
		{name: "-no-cache beats both", env: env, flags: RunnerFlags{CacheDir: env, NoCache: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv("REPRO_CACHE", tc.env)
			r, closeRunner, err := tc.flags.Open(o)
			if tc.wantErr {
				if err == nil {
					closeRunner()
					t.Fatal("opened an unopenable -cache-dir")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer closeRunner()
			got := ""
			if r.Cache != nil {
				got = r.Cache.Dir()
			}
			if got != tc.wantDir {
				t.Errorf("cache dir %q, want %q", got, tc.wantDir)
			}
			if (r.Journal != nil) != (r.Cache != nil) {
				t.Errorf("journal open %v with cache open %v", r.Journal != nil, r.Cache != nil)
			}
		})
	}
}
