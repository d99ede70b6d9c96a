// Package store is the analysis daemon's persistent, content-addressed
// result store: a second-level cache under the batch engine's in-memory
// memo (it implements batch.ResultCache), keyed exactly like the memo — the
// ir structural fingerprint of the graph, the register type, and the
// canonicalized options key — so RS results survive process restarts and
// are shared across processes pointing at the same directory.
//
// Layout:
//
//	<root>/VERSION            "regsat-store v<schema>\n"
//	<root>/objects/ab/<key>.json
//
// where <key> is the hex SHA-256 of "fingerprint\x00type\x00optionsKey" and
// "ab" its first byte — a fan-out that keeps directories small on large
// corpora. Each record is an engine result's own JSON (rs.Result,
// cyclic.Result) inside an envelope carrying the schema number and the key.
//
// The store is crash-safe and corruption-tolerant by construction:
//
//   - writes go to a temp file in the objects directory and are renamed
//     into place, so readers never observe a partial record;
//   - a record that fails to read, parse, or match its schema/key is
//     treated as a miss (and counted in Stats.Errors), never as an error
//     the analysis pipeline sees;
//   - a VERSION file from a different schema makes Open start over in a
//     fresh objects tree (objects-v<schema>), leaving the old one alone.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"regsat/internal/ddg"
)

// SchemaVersion is the record schema this build reads and writes. Bump it
// whenever a record changes incompatibly — the envelope, or a JSON key of
// rs.Result, rs.ILPInfo, rs.ExactStats, solver.Stats or cyclic.Result
// renamed or removed: old stores are then ignored (not deleted) and a fresh
// objects tree is started.
const SchemaVersion = 1

// Store is a persistent result cache rooted at a directory. All methods are
// safe for concurrent use by multiple goroutines — and, thanks to the
// atomic rename protocol, by multiple processes sharing the directory.
type Store struct {
	root    string
	objects string

	hits, misses, puts, errors atomic.Int64
}

// Open opens (creating if necessary) the store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	objects := "objects"
	versionPath := filepath.Join(dir, "VERSION")
	want := fmt.Sprintf("regsat-store v%d\n", SchemaVersion)
	raw, err := os.ReadFile(versionPath)
	switch {
	case os.IsNotExist(err):
		if err := os.WriteFile(versionPath, []byte(want), 0o644); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	case err != nil:
		return nil, fmt.Errorf("store: %w", err)
	case string(raw) != want:
		// A different (older or newer) schema owns the default tree; keep
		// our records in a schema-suffixed tree beside it.
		objects = fmt.Sprintf("objects-v%d", SchemaVersion)
	}
	s := &Store{root: dir, objects: filepath.Join(dir, objects)}
	if err := os.MkdirAll(s.objects, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.root }

// path maps a cache key to its record file.
func (s *Store) path(fp string, t ddg.RegType, optsKey string) string {
	h := sha256.Sum256([]byte(fp + "\x00" + string(t) + "\x00" + optsKey))
	name := hex.EncodeToString(h[:])
	return filepath.Join(s.objects, name[:2], name+".json")
}

// read decodes the record stored under (fp, t, optsKey) into rec and
// counts the outcome: a missing file is a plain miss; an unreadable file, a
// decode failure, an envelope that does not match the key or kind, or a
// payload that fails rec.check is a miss counted in Stats.Errors too.
func (s *Store) read(fp string, g *ddg.Graph, t ddg.RegType, optsKey, kind string, rec record) bool {
	raw, err := os.ReadFile(s.path(fp, t, optsKey))
	if err != nil {
		if !os.IsNotExist(err) {
			s.errors.Add(1)
		}
		s.misses.Add(1)
		return false
	}
	want := envelope{Schema: SchemaVersion, Fingerprint: fp, Type: string(t), OptionsKey: optsKey, Kind: kind}
	if err := json.Unmarshal(raw, rec); err != nil ||
		!rec.head().matches(want) || rec.check(g) != nil {
		s.errors.Add(1)
		s.misses.Add(1)
		return false
	}
	s.hits.Add(1)
	return true
}

// matches reports whether e keys the same record as want (the write time
// is never compared).
func (e *envelope) matches(want envelope) bool {
	want.SavedAtUnixNs = e.SavedAtUnixNs
	return *e == want
}

// write stamps rec's envelope and persists it under (fp, t, optsKey) with
// an atomic write. Failures are counted and dropped — a full disk must not
// fail an analysis that already succeeded.
func (s *Store) write(fp string, t ddg.RegType, optsKey, kind string, rec record) {
	*rec.head() = envelope{
		Schema:        SchemaVersion,
		Fingerprint:   fp,
		Type:          string(t),
		OptionsKey:    optsKey,
		Kind:          kind,
		SavedAtUnixNs: now().UnixNano(),
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		s.errors.Add(1)
		return
	}
	if err := writeAtomic(s.path(fp, t, optsKey), raw); err != nil {
		s.errors.Add(1)
		return
	}
	s.puts.Add(1)
}

// writeAtomic writes data to path via a temp file in the same directory and
// an atomic rename, creating the parent directory on first use.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Len walks the store and returns the number of resident records — an
// O(records) maintenance helper for tests and the ops runbook, not a hot
// path.
func (s *Store) Len() (int, error) {
	n := 0
	err := filepath.WalkDir(s.objects, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".json") {
			n++
		}
		return nil
	})
	return n, err
}

// Stats is the store's cumulative behavior since Open.
type Stats struct {
	// Hits and Misses count Get outcomes; Puts counts records persisted.
	Hits, Misses, Puts int64
	// Errors counts corrupt/unreadable records tolerated on Get and failed
	// writes dropped on Put.
	Errors int64
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:   s.hits.Load(),
		Misses: s.misses.Load(),
		Puts:   s.puts.Load(),
		Errors: s.errors.Load(),
	}
}

// now is a test seam for record timestamps.
var now = time.Now
