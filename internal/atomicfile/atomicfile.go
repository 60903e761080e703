// Package atomicfile replaces a file so that a crash leaves its old
// contents or its new ones, never a torn mix.  The SIP runtime writes its
// snapshots, checkpoint files and spilled blocks with it, and the job
// service its compacted journal.
package atomicfile

import (
	"os"
	"path/filepath"
)

// Write replaces the file at path with the concatenation of parts: a
// temp file in the same directory, written, fsynced, closed and renamed
// over path.  A crash mid-write leaves the old file or the new one,
// never a torn one; a failed write leaves no temp file behind.  The
// rename itself survives a crash once the directory is synced (SyncDir).
func Write(path string, parts ...[]byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	for _, p := range parts {
		if err == nil {
			_, err = f.Write(p)
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// SyncDir fsyncs a directory, so that a file just renamed into it keeps
// its directory entry through a crash.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
