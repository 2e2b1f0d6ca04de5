// Command-line binding shared by the Runner front ends (cmd/figures,
// cmd/sweep, cmd/atacd): one place declares the runner flags, resolves
// them, and opens the persistent cache and run journal, so the front ends
// cannot drift apart.
package experiments

import (
	"flag"
	"log"
	"time"
)

// RunnerFlags is the set of campaign-engine knobs every Runner front end
// exposes. Register binds the fields to flags, using their current values
// as defaults; Open applies them to a new Runner.
type RunnerFlags struct {
	Jobs          int
	CacheDir      string
	NoCache       bool
	CacheMaxBytes int64
	RunTimeout    time.Duration
	Retries       int
	Grace         time.Duration
}

// DefaultRunnerFlags returns the shared defaults: two retries for
// transient failures and a 15 s drain window after the first signal.
func DefaultRunnerFlags() RunnerFlags {
	return RunnerFlags{Retries: 2, Grace: 15 * time.Second}
}

// Register declares -jobs -cache-dir -no-cache -cache-max-bytes
// -run-timeout -retries -grace on fs.
func (f *RunnerFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Jobs, "jobs", f.Jobs, "max concurrent simulations (0: REPRO_JOBS env, else GOMAXPROCS)")
	fs.StringVar(&f.CacheDir, "cache-dir", f.CacheDir, "persistent result cache directory (default: REPRO_CACHE env, else the user cache dir)")
	fs.BoolVar(&f.NoCache, "no-cache", f.NoCache, "disable the persistent result cache")
	fs.Int64Var(&f.CacheMaxBytes, "cache-max-bytes", f.CacheMaxBytes, "bound the on-disk cache, evicting least-recently-used entries (0 = unbounded)")
	fs.DurationVar(&f.RunTimeout, "run-timeout", f.RunTimeout, "per-run wall-clock deadline, e.g. 5m (0 = none; overruns retry, then fail)")
	fs.IntVar(&f.Retries, "retries", f.Retries, "extra attempts for transiently failed runs (panics, deadlines)")
	fs.DurationVar(&f.Grace, "grace", f.Grace, "drain window after SIGINT/SIGTERM before in-flight runs are cancelled")
}

// Open builds a Runner for o with the flags applied. Failures the journal
// recorded are recalled rather than re-simulated.
//
// Unless -no-cache is set, the persistent cache lives in -cache-dir, else
// DefaultCacheDir(). An explicit -cache-dir that cannot be opened is an
// error; a default one only warns, and the campaign runs uncached. The
// run journal is on whenever the cache is. The returned function closes
// the journal; call it when the campaign is over.
func (f *RunnerFlags) Open(o Options) (*Runner, func(), error) {
	r := NewRunner(o)
	r.Jobs = f.Jobs
	r.Retries, r.RunTimeout = f.Retries, f.RunTimeout
	r.RecallFailures = true
	r.Cache = nil
	closer := func() {}
	if f.NoCache {
		return r, closer, nil
	}
	dir := f.CacheDir
	if dir == "" {
		if dir = DefaultCacheDir(); dir == "" {
			return r, closer, nil
		}
	}
	c, err := OpenCache(dir)
	if err != nil {
		if f.CacheDir != "" {
			return nil, nil, err
		}
		log.Printf("warning: %v (continuing without cache)", err)
		return r, closer, nil
	}
	c.MaxBytes = f.CacheMaxBytes
	c.Log = func(s string) { log.Print(s) }
	r.Cache = c
	j, err := OpenJournal(c.JournalPath())
	if err != nil {
		log.Printf("warning: %v (continuing without journal)", err)
		return r, closer, nil
	}
	r.Journal = j
	return r, func() {
		if err := j.Close(); err != nil {
			log.Printf("warning: journal close: %v", err)
		}
	}, nil
}
