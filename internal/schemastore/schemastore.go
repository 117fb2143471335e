// Package schemastore is the disk tier of the two-tier compiled-schema
// store: a content-addressed cache of compiled-schema blobs keyed by the
// registry's full-key digest (the same hex reference documents use for
// schemaRef routing). The engine's in-memory registry is tier 1;
// this package persists the compiled artifacts so a process restart — or a
// registry eviction — rehydrates a schema at deserialization speed instead
// of recompiling it from DTD source.
//
// Layout: <dir>/<ref[:2]>/<ref>.pvsc — a two-hex-digit fanout keeps
// directories small under large schema populations. Writes go through a
// temp file in the same directory plus an atomic rename, so readers (and
// concurrent writers racing on the same ref) never observe a torn blob.
// Addresses are content-derived, so a ref's blob never changes: the racing
// writers' blobs are identical and last-rename-wins is safe.
//
// The cache trusts nothing it reads back: blobs carry their own checksums
// (see internal/core's binary codec), and callers treat any load or decode
// failure as a miss, recompile, and Delete the damaged file. The
// commit protocol makes the atomic claim real across power loss: the temp
// file is fsynced before the rename and the fanout directory is fsynced
// after it — without the directory sync a crash can silently undo the
// rename itself. Filesystem access goes through the faultfs seam
// (OpenFS), and the package's crash-matrix tests enumerate every
// filesystem operation of a Put/Get workload to pin the
// intact-or-recompile invariant.
package schemastore

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/faultfs"
)

// Ext is the compiled-schema blob file extension.
const Ext = ".pvsc"

// ErrNotFound reports a ref with no cached blob.
var ErrNotFound = errors.New("schemastore: compiled schema not found")

// ErrAmbiguous reports a ref prefix matching more than one cached blob.
var ErrAmbiguous = errors.New("schemastore: ref prefix matches several compiled schemas")

// Cache is a disk-backed, content-addressed compiled-schema cache. All
// methods are safe for concurrent use (by goroutines and by cooperating
// processes sharing the directory).
type Cache struct {
	dir  string
	fsys faultfs.FS
	// syncedDirs remembers fanout directories already made durable, so
	// steady-state Puts into a warm fanout pay one directory fsync (for
	// the new entry), not two.
	syncedDirs sync.Map // fanout dir path -> struct{}

	hits   atomic.Int64
	misses atomic.Int64
	writes atomic.Int64
	errs   atomic.Int64
}

// Stats is a snapshot of cache counters: blob loads that hit and missed,
// completed writes, and I/O-level errors (failed reads, writes or
// deletes; decode failures are counted by the caller that decodes).
type Stats struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Writes int64 `json:"writes"`
	Errors int64 `json:"errors"`
}

// Open returns a cache rooted at dir, creating the directory if needed,
// over the real filesystem.
func Open(dir string) (*Cache, error) { return OpenFS(dir, nil) }

// OpenFS is Open over an explicit filesystem seam (nil selects the real
// filesystem); crash-consistency tests inject a faultfs.FaultFS.
func OpenFS(dir string, fsys faultfs.FS) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("schemastore: empty cache directory")
	}
	if fsys == nil {
		fsys = faultfs.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("schemastore: %w", err)
	}
	if err := faultfs.SyncDirs(fsys, filepath.Dir(dir), dir); err != nil {
		return nil, fmt.Errorf("schemastore: syncing cache root: %w", err)
	}
	return &Cache{dir: dir, fsys: fsys}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// path maps a full ref to its blob path under the two-digit fanout.
func (c *Cache) path(ref string) string {
	return filepath.Join(c.dir, ref[:2], ref+Ext)
}

// validRef accepts lowercase-hex refs long enough to have a fanout
// directory; anything else (path separators above all) is rejected before
// it can touch the filesystem.
func validRef(ref string) bool {
	if len(ref) < 8 {
		return false
	}
	for i := 0; i < len(ref); i++ {
		c := ref[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Get loads the blob stored for ref. A missing blob returns ErrNotFound;
// any other failure is an I/O error.
func (c *Cache) Get(ref string) ([]byte, error) {
	if !validRef(ref) {
		return nil, fmt.Errorf("schemastore: malformed ref %q", ref)
	}
	data, err := c.fsys.ReadFile(c.path(ref))
	switch {
	case err == nil:
		c.hits.Add(1)
		return data, nil
	case errors.Is(err, fs.ErrNotExist):
		c.misses.Add(1)
		return nil, ErrNotFound
	default:
		c.errs.Add(1)
		return nil, fmt.Errorf("schemastore: %w", err)
	}
}

// FindByPrefix resolves a ref prefix (>=8 hex digits, so the fanout
// directory is determined) to the unique stored blob whose ref starts with
// it. It returns the full ref alongside the blob; ErrNotFound when nothing
// matches, ErrAmbiguous when several do. Any other prefix (too short, not
// lowercase hex) is refused before any filesystem call, so it cannot
// name a path outside the cache.
func (c *Cache) FindByPrefix(prefix string) (string, []byte, error) {
	if !validRef(prefix) {
		return "", nil, fmt.Errorf("schemastore: malformed ref prefix %q", prefix)
	}
	entries, err := c.fsys.ReadDir(filepath.Join(c.dir, prefix[:2]))
	if errors.Is(err, fs.ErrNotExist) {
		c.misses.Add(1)
		return "", nil, ErrNotFound
	}
	if err != nil {
		c.errs.Add(1)
		return "", nil, fmt.Errorf("schemastore: %w", err)
	}
	found := ""
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), Ext)
		if !ok || !strings.HasPrefix(name, prefix) {
			continue
		}
		if found != "" {
			return "", nil, ErrAmbiguous
		}
		found = name
	}
	if found == "" {
		c.misses.Add(1)
		return "", nil, ErrNotFound
	}
	data, err := c.Get(found)
	return found, data, err
}

// Put stores the blob for ref atomically and durably: the temp file's
// bytes are fsynced before the rename, and the fanout directory is
// fsynced after it (a rename whose directory entry was never synced can
// be undone wholesale by a crash). Concurrent Puts for the same ref are
// safe: content addressing makes their payloads identical.
func (c *Cache) Put(ref string, data []byte) error {
	if !validRef(ref) {
		return fmt.Errorf("schemastore: malformed ref %q", ref)
	}
	dst := c.path(ref)
	if err := c.ensureFanout(filepath.Dir(dst)); err != nil {
		c.errs.Add(1)
		return fmt.Errorf("schemastore: %w", err)
	}
	tmp, err := c.fsys.CreateTemp(filepath.Dir(dst), ref+".tmp*")
	if err != nil {
		c.errs.Add(1)
		return fmt.Errorf("schemastore: %w", err)
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = c.fsys.Rename(tmp.Name(), dst)
	}
	if werr == nil {
		werr = faultfs.SyncDir(c.fsys, filepath.Dir(dst))
	}
	if werr != nil {
		c.fsys.Remove(tmp.Name())
		c.errs.Add(1)
		return fmt.Errorf("schemastore: %w", werr)
	}
	c.writes.Add(1)
	return nil
}

// ensureFanout creates one fanout directory durably, once: later Puts
// into the same fanout skip straight to the blob write.
func (c *Cache) ensureFanout(dir string) error {
	if _, ok := c.syncedDirs.Load(dir); ok {
		return nil
	}
	if err := c.fsys.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := faultfs.SyncDir(c.fsys, c.dir); err != nil {
		return err
	}
	c.syncedDirs.Store(dir, struct{}{})
	return nil
}

// Delete removes the blob for ref (the corruption-recovery path); a
// missing blob is not an error.
func (c *Cache) Delete(ref string) error {
	if !validRef(ref) {
		return fmt.Errorf("schemastore: malformed ref %q", ref)
	}
	err := c.fsys.Remove(c.path(ref))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		c.errs.Add(1)
		return fmt.Errorf("schemastore: %w", err)
	}
	return nil
}

// Len counts the stored blobs (a directory walk; for tooling and tests,
// not hot paths).
func (c *Cache) Len() (int, error) {
	n := 0
	ents, err := c.fsys.ReadDir(c.dir)
	if err != nil {
		return 0, err
	}
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		sub, err := c.fsys.ReadDir(filepath.Join(c.dir, ent.Name()))
		if err != nil {
			return 0, err
		}
		for _, e := range sub {
			if !e.IsDir() && strings.HasSuffix(e.Name(), Ext) {
				n++
			}
		}
	}
	return n, nil
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:   c.hits.Load(),
		Misses: c.misses.Load(),
		Writes: c.writes.Load(),
		Errors: c.errs.Load(),
	}
}
