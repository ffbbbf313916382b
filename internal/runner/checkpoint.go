package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"hammingmesh/internal/journal"
)

// Checkpoint is a crash-safe sweep checkpoint over a journal.Log: a
// durable map from deterministic per-point keys to JSON-encoded results.
// The journal's first record is a meta record binding the checkpoint to
// one sweep fingerprint (the canonicalize-then-hash discipline of hxd's
// content addresses), so a journal directory can never silently mix
// points of two different sweeps; every later record is one completed
// point, appended (and fsync'd) the moment it finishes. Reopening after a
// crash replays the completed points — the journal layer truncates any
// torn tail — and the sweep re-runs only what is missing.
type Checkpoint struct {
	log  *journal.Log
	done map[string][]byte
}

// Checkpoint record types.
const (
	ckptMeta  = 1 // payload: sweep fingerprint (hex string)
	ckptPoint = 2 // journal.AppendKeyed: u32 key length, key, value JSON
)

// OpenCheckpoint opens (or creates) a sweep checkpoint in dir. sweepKey
// is the sweep's fingerprint (see SchedSweepConfig.Fingerprint /
// ResilienceFingerprint — or any journal.KeyOf of a canonical config):
// a fresh checkpoint journals it; an existing one must match, so resuming
// with different parameters fails loudly instead of splicing foreign
// points into the grid.
func OpenCheckpoint(dir, sweepKey string, o journal.Options) (*Checkpoint, error) {
	ck := &Checkpoint{done: make(map[string][]byte)}
	var storedKey string
	log, _, err := journal.Open(dir, o, func(rec []byte) error {
		if len(rec) < 1 {
			return fmt.Errorf("runner: checkpoint record with no type byte")
		}
		switch rec[0] {
		case ckptMeta:
			storedKey = string(rec[1:])
		case ckptPoint:
			key, val, err := journal.DecodeKeyed(rec)
			if err != nil {
				return fmt.Errorf("runner: checkpoint point record: %w", err)
			}
			ck.done[key] = val
		default:
			return fmt.Errorf("runner: unknown checkpoint record type %d", rec[0])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	ck.log = log
	if storedKey == "" {
		// Fresh (or crashed-before-meta) journal: bind it now.
		if err := log.Append(append([]byte{ckptMeta}, sweepKey...)); err != nil {
			log.Close()
			return nil, err
		}
	} else if storedKey != sweepKey {
		log.Close()
		return nil, fmt.Errorf("runner: checkpoint %s belongs to a different sweep (journaled fingerprint %.12s…, this sweep %.12s…); use a fresh -journal directory or rerun the original command", dir, storedKey, sweepKey)
	}
	return ck, nil
}

// Done returns the journaled value for a point key, if the point already
// completed in a previous run.
func (ck *Checkpoint) Done(key string) ([]byte, bool) {
	v, ok := ck.done[key]
	return v, ok
}

// Len is the number of completed points loaded at open.
func (ck *Checkpoint) Len() int { return len(ck.done) }

// Put journals one completed point. Durable when it returns; safe for
// concurrent use (the journal serializes appends).
func (ck *Checkpoint) Put(key string, val []byte) error {
	return ck.log.Append(journal.AppendKeyed(nil, ckptPoint, key, val))
}

// Close seals the journal.
func (ck *Checkpoint) Close() error { return ck.log.Close() }

// RunSweepCLI is the command-line tools' journaled-sweep driver. It runs
// sweep under a context that SIGINT and SIGTERM cancel: in-flight points
// finish and are journaled, the rest of the grid is skipped, and rerunning
// the same command resumes from the checkpoint. With a -journal directory
// the checkpoint is opened against fingerprint with fsync'd appends (a
// kill -9 after any point completes loses nothing), a non-empty crashSpec
// arms an injected crash that kills the process (journal.ExitCrashPlan),
// and the number of resumed points is announced; without a directory
// sweep gets a nil checkpoint. Errors end the process with a one-line
// message on stderr: exit 130 on interruption (with a rerun hint when
// points are journaled), exit 1 otherwise.
func RunSweepCLI[T any](tool, dir, crashSpec, fingerprint string, sweep func(context.Context, *Checkpoint) (T, error)) T {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var ck *Checkpoint
	if dir != "" {
		plan, err := journal.ExitCrashPlan(crashSpec)
		if err == nil {
			ck, err = OpenCheckpoint(dir, fingerprint, journal.Options{Crash: plan})
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer ck.Close()
		if n := ck.Len(); n > 0 {
			fmt.Printf("journal: resuming from %s, %d completed points loaded\n", dir, n)
		}
	}
	v, err := sweep(ctx, ck)
	if err != nil && ctx.Err() != nil {
		if ck != nil {
			ck.Close()
			fmt.Fprintf(os.Stderr, "%s: interrupted; completed points are journaled — rerun the same command to resume\n", tool)
		} else {
			fmt.Fprintf(os.Stderr, "%s: interrupted\n", tool)
		}
		os.Exit(130)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return v
}

// RunJournaled executes jobs like RunCtx, with crash-safe resume: each
// job is journaled under its Name, so names must be unique within the
// sweep (the checkpoint's meta record pins the sweep fingerprint, which
// makes (fingerprint, name) globally unambiguous). Jobs whose name is
// already in the checkpoint are not re-run — a no-op job returns the
// decoded journaled value instead — and every freshly completed job's
// value is journaled as it finishes. T is the result type; job Run
// functions must return *T (and the sweeps that use this do), which JSON
// round-trips bit-exactly for the finite floats and integers the sweeps
// produce.
//
// The full jobs slice is always submitted (replayed entries as no-ops),
// so the per-job seeds are identical between a fresh run and a resumed
// one — part of the byte-identical-resume contract.
// A nil ck degrades to plain RunCtx.
func RunJournaled[T any](p *Pool, ctx context.Context, jobs []Job, ck *Checkpoint) ([]Result, error) {
	if ck == nil {
		return p.RunCtx(ctx, jobs), nil
	}
	wrapped := make([]Job, len(jobs))
	for i, job := range jobs {
		if b, ok := ck.Done(job.Name); ok {
			v := new(T)
			if err := json.Unmarshal(b, v); err != nil {
				return nil, fmt.Errorf("runner: checkpoint decode %q: %w", job.Name, err)
			}
			wrapped[i] = Job{Name: job.Name, Run: func(*Ctx) (any, error) { return v, nil }}
			continue
		}
		wrapped[i] = Job{Name: job.Name, Run: func(c *Ctx) (any, error) {
			v, err := job.Run(c)
			if err != nil {
				return v, err
			}
			b, err := json.Marshal(v)
			if err != nil {
				return nil, fmt.Errorf("runner: checkpoint encode %q: %w", job.Name, err)
			}
			if err := ck.Put(job.Name, b); err != nil {
				return nil, err
			}
			return v, nil
		}}
	}
	return p.RunCtx(ctx, wrapped), nil
}
