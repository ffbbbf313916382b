package serve

import (
	"encoding/json"
	"fmt"
	"sort"

	"hammingmesh/internal/journal"
)

// The durable job journal (Config.JournalDir): every accepted experiment
// request and every computed result is appended to a crash-safe
// journal.Log, so a daemon killed mid-computation loses no accepted work —
// on restart the journal is replayed, journaled results rewarm the result
// cache, and requests that were accepted but never served are re-run
// through the compute slot.
//
// Record layout (first byte is the type):
//
//	accept: 'A' | canonical request JSON (the Canon — its key re-derives)
//	result: 'R' | u32 key length | key | result body (journal.AppendKeyed)
//
// Both sides are idempotent by content address: a crash between a
// result's append and its fsync can replay one extra or one fewer record
// (the journal's CrashBeforeSync contract), and replay converges either
// way — an accept whose result exists is not re-run, a re-run of an
// already-served request recomputes the bit-identical body.
const (
	jrecAccept = 'A'
	jrecResult = 'R'
)

// jobJournal wraps the log with hxd's record codec; nil means journaling
// is off and every hook is a no-op (the obs zero-overhead discipline).
type jobJournal struct {
	log *journal.Log
}

// openJobJournal opens dir, replays it, and reports the recovered state:
// results holds every journaled (key, body); pending holds accepted
// requests with no journaled result, in accept order.
func openJobJournal(dir string, o journal.Options) (jj *jobJournal, pending map[string]*Canon, results map[string][]byte, stats journal.Stats, err error) {
	pending = make(map[string]*Canon)
	results = make(map[string][]byte)
	log, stats, err := journal.Open(dir, o, func(rec []byte) error {
		if len(rec) == 0 {
			return fmt.Errorf("serve: empty journal record")
		}
		switch rec[0] {
		case jrecAccept:
			var cn Canon
			if err := json.Unmarshal(rec[1:], &cn); err != nil {
				return fmt.Errorf("serve: journal accept record: %w", err)
			}
			key := cn.Key()
			if _, served := results[key]; !served {
				pending[key] = &cn
			}
			return nil
		case jrecResult:
			key, body, err := journal.DecodeKeyed(rec)
			if err != nil {
				return fmt.Errorf("serve: journal result record: %w", err)
			}
			results[key] = body
			delete(pending, key)
			return nil
		default:
			return fmt.Errorf("serve: unknown journal record type %q", rec[0])
		}
	})
	if err != nil {
		return nil, nil, nil, stats, err
	}
	return &jobJournal{log: log}, pending, results, stats, nil
}

func (j *jobJournal) accept(cn *Canon) error {
	if j == nil {
		return nil
	}
	return j.log.Append(append([]byte{jrecAccept}, cn.CanonicalJSON()...))
}

func (j *jobJournal) result(key string, body []byte) error {
	if j == nil {
		return nil
	}
	return j.log.Append(journal.AppendKeyed(nil, jrecResult, key, body))
}

func (j *jobJournal) close() error {
	if j == nil {
		return nil
	}
	return j.log.Close()
}

// sortedKeys fixes the replay order of pending requests (map iteration is
// random; recovery should not be).
func sortedKeys(m map[string]*Canon) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
