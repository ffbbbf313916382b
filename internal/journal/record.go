package journal

import (
	"encoding/binary"
	"fmt"
	"os"
	"slices"
)

// AppendKeyed appends a keyed record to buf: the type byte, the key
// length as a little-endian u32, the key and the value. Sweep checkpoints
// (one record per completed point) and hxd's job journal (one per
// computed result) both use this layout.
func AppendKeyed(buf []byte, typ byte, key string, val []byte) []byte {
	buf = slices.Grow(buf, 5+len(key)+len(val))
	buf = append(buf, typ)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(key)))
	buf = append(buf, key...)
	return append(buf, val...)
}

// DecodeKeyed splits a keyed record written by AppendKeyed into its key
// and a copy of its value; rec[0] is the type byte the caller has already
// dispatched on.
func DecodeKeyed(rec []byte) (key string, val []byte, err error) {
	if len(rec) < 5 {
		return "", nil, fmt.Errorf("journal: short keyed record (%d bytes)", len(rec))
	}
	n := binary.LittleEndian.Uint32(rec[1:5])
	if int(n) > len(rec)-5 {
		return "", nil, fmt.Errorf("journal: keyed record key length %d exceeds record", n)
	}
	return string(rec[5 : 5+n]), append([]byte(nil), rec[5+n:]...), nil
}

// ExitCrashPlan parses a command-line -journal-crash value
// ("<point>:<n>", see ParseCrashPlan) into a plan whose Fire is a real
// process death via os.Exit(3), so the recovery a restart then drives is
// exactly the SIGKILL path. An empty spec arms nothing and returns nil.
func ExitCrashPlan(spec string) (*CrashPlan, error) {
	if spec == "" {
		return nil, nil
	}
	plan, err := ParseCrashPlan(spec)
	if err != nil {
		return nil, err
	}
	plan.Fire = func() error { os.Exit(3); return nil }
	return plan, nil
}
