package store

// Upgrades for the layouts the store no longer reads or writes, both run
// once at Open: v2 segments of one JSON line per record are transcoded
// to TLV segments in place, and the v1 one-file-per-record layout is
// folded into TLV segments. Nothing below load ever sees either layout.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/sweep/tlv"
)

const (
	recordsDirV1   = "records"
	segSuffixJSONL = ".jsonl"
)

// record is the v1/v2 on-disk envelope around a result state: one JSON
// line per record inside a v2 segment, one file per record in v1.
type record struct {
	V      int                  `json:"v"`
	ID     string               `json:"id"`
	Result campaign.ResultState `json:"result"`
}

// upgradeV2 transcodes every v2 segment, segments/<shard>/seg-NNNN.jsonl,
// into the TLV segment of the same number and removes the JSONL file,
// reporting whether anything moved. Each valid line (current envelope
// version, valid id, sharded where it sits) becomes the frame Put
// writes, in line order; garbage lines, which always read as misses,
// are dropped. Records keep their stored state: a full v2 record stays
// full under a compact-mode Open.
//
// The same number is always free: v2-era stores started a shard's TLV
// appends after its highest JSONL segment, so cross-segment order, and
// with it "last copy wins", is unchanged. The TLV file lands by
// temp+Sync+rename before the JSONL one is unlinked, so a crash leaves
// either the untouched JSONL, or both files — and the next Open
// transcodes again to the identical bytes.
func (s *Store) upgradeV2() (bool, error) {
	paths, err := filepath.Glob(filepath.Join(s.dir, segmentsDir, "*", segPrefix+"*"+segSuffixJSONL))
	if err != nil {
		return false, fmt.Errorf("store: scan v2 segments: %w", err)
	}
	moved := false
	for _, p := range paths {
		num := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(p), segPrefix), segSuffixJSONL)
		n, err := strconv.Atoi(num)
		if err != nil || n < 0 {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return moved, fmt.Errorf("store: upgrade %s: %w", p, err)
		}
		shard := filepath.Base(filepath.Dir(p))
		var out []byte
		for len(data) > 0 {
			var line []byte
			line, data, _ = bytes.Cut(data, []byte{'\n'})
			var rec record
			if json.Unmarshal(line, &rec) != nil || rec.V != FormatVersion ||
				validID(rec.ID) != nil || shardOf(rec.ID) != shard {
				continue
			}
			out = tlv.AppendEnvelope(out, rec.ID, &rec.Result)
		}
		if err := s.writeSegment("put-upgrade-*.tmp", shard, n, out); err != nil {
			return moved, fmt.Errorf("store: upgrade %s: %w", p, err)
		}
		if err := os.Remove(p); err != nil {
			return moved, fmt.Errorf("store: upgrade %s: %w", p, err)
		}
		moved = true
	}
	return moved, nil
}

// migrateV1 folds a v1 one-file-per-record layout (records/<id>.json)
// into TLV segments and removes it. Files are visited in sorted order so
// migration is deterministic; unreadable or mismatched v1 records —
// which already read as misses in v1 — are dropped rather than carried
// over. Interrupted migrations resume safely: already-migrated records
// are recovered by the segment scan, the leftovers re-migrate on the
// next open.
func (s *Store) migrateV1() (bool, error) {
	recDir := filepath.Join(s.dir, recordsDirV1)
	entries, err := os.ReadDir(recDir)
	if err != nil {
		if os.IsNotExist(err) {
			return false, nil
		}
		return false, fmt.Errorf("store: scan v1 %s: %w", recDir, err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if id, ok := strings.CutSuffix(e.Name(), ".json"); ok && !e.IsDir() && id != "" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	migrated := false
	for _, name := range names {
		path := filepath.Join(recDir, name)
		id := strings.TrimSuffix(name, ".json")
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var rec record
		if json.Unmarshal(data, &rec) != nil || rec.V != FormatVersion ||
			rec.ID != id || validID(id) != nil {
			os.Remove(path)
			continue
		}
		// Re-encode rather than trusting the file's bytes: the result is
		// the same canonical TLV frame Put writes.
		l, err := s.appendLocked(id, tlv.AppendEnvelope(nil, id, &rec.Result))
		if err != nil {
			return migrated, fmt.Errorf("store: migrate %s: %w", id, err)
		}
		s.loc[id] = l
		os.Remove(path)
		migrated = true
	}
	// Succeeds only once every record file is gone; stray files keep
	// the directory (and are retried or ignored next open).
	os.Remove(recDir)
	return migrated, nil
}
