package durable

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// WriteFile atomically replaces path with data: the bytes go through
// wrap into a temp file "<name>.tmp*" beside path, which is fsynced,
// closed and renamed onto path, and then the directory is fsynced. The
// file keeps the permissions of the file it replaces, and a new file
// gets 0644. A failure before the rename removes the temp file, leaving
// path as it was. A failed directory sync is returned too: the content
// is in place, but the rename may not survive power loss.
func WriteFile(path string, data []byte, wrap func(io.Writer) io.Writer) (err error) {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("creating temp file for %s: %w", path, err)
	}
	tmp := f.Name()
	defer func() {
		if err != nil && tmp != "" {
			f.Close()
			os.Remove(tmp)
		}
	}()
	perm := fs.FileMode(0o644) // CreateTemp's own 0600 would hide the file from other readers
	if fi, err := os.Stat(path); err == nil {
		perm = fi.Mode().Perm()
	}
	if err := f.Chmod(perm); err != nil {
		return fmt.Errorf("setting permissions of %s: %w", path, err)
	}
	var w io.Writer = f
	if wrap != nil {
		w = wrap(w)
	}
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("syncing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("renaming %s into place: %w", path, err)
	}
	tmp = ""
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("syncing directory of %s: %w", path, err)
	}
	return nil
}

// SweepTemp removes every "*.tmp*" file under dir: the residue of a
// crash between WriteFile's temp-file creation and its rename.
func SweepTemp(dir string) error {
	return filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.Contains(d.Name(), ".tmp") {
			err = os.Remove(path)
		}
		return err
	})
}

// Blobs is a content-addressed store rooted at a directory: the blob
// with SHA-256 hex digest sha lives at <root>/<sha[:2]>/<sha>. Blobs are
// immutable once written, so readers need no locks.
type Blobs string

// Path returns the file of the blob addressed by sha (at least two
// characters long).
func (b Blobs) Path(sha string) string {
	return filepath.Join(string(b), sha[:2], sha)
}

// Put stores data under sha, its SHA-256 hex digest, which callers
// compute before taking any lock that serializes their Puts. It writes
// with WriteFile through wrap; a resident blob is left alone and
// reported as not created.
func (b Blobs) Put(sha string, data []byte, wrap func(io.Writer) io.Writer) (created bool, err error) {
	path := b.Path(sha)
	if _, err := os.Stat(path); err == nil {
		return false, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return false, err
	}
	return true, WriteFile(path, data, wrap)
}

// Walk calls fn with the address and size of every resident blob; fn
// may remove the blob it is given. A missing root is an empty store.
func (b Blobs) Walk(fn func(sha string, size int64) error) error {
	return filepath.WalkDir(string(b), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			var info fs.FileInfo
			if info, err = d.Info(); err == nil {
				return fn(d.Name(), info.Size())
			}
		}
		if os.IsNotExist(err) {
			return nil // a missing root, or a blob removed mid-walk
		}
		return err
	})
}
