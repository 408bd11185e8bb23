// Package durable provides the crash-safety primitives the serving
// stack persists through: atomic file replacement, checksummed sealed
// record containers for snapshots, and a segment-rotated write-ahead
// log for the online feedback stream.
//
// Every write path in this package is crash-only software: the on-disk
// artifact is either the complete previous generation or the complete
// new one, never a torn hybrid under its real name, and every reader
// verifies checksums before believing a byte. The same discipline is
// testable: all writers thread a KillFunc seam that simulates a process
// death at an exact byte offset, leaving precisely the torn state a
// real kill -9 would — the crash-injection harness sweeps those
// offsets and asserts recovery from each one.
package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// KillFunc is the crash-injection seam threaded through every artifact
// write. It is consulted once per write with the artifact's target
// label; when it reports armed, the write dies with ErrKilled after
// exactly offset bytes have reached the file — the on-disk state is
// byte-identical to a process killed at that point, and nothing after
// the kill (fsync, rename, cleanup) runs. Production passes nil; crash
// tests pass a closure that arms the target and offset under test.
type KillFunc func(target string) (offset int64, armed bool)

// ErrKilled marks a write aborted by an injected crash. The temp or
// partial file is deliberately left behind — a dead process cannot
// clean up — so recovery code sees the true post-crash filesystem.
var ErrKilled = errors.New("durable: write killed by injected crash")

// TempPrefix marks in-progress atomic writes; RemoveStaleTemps sweeps
// abandoned ones during recovery.
const TempPrefix = ".durable-"

// crashWriter forwards writes until the armed offset is reached, then
// fails with ErrKilled, forever. The partial chunk before the offset is
// still written, so the kill lands on an exact byte boundary.
type crashWriter struct {
	w      io.Writer
	remain int64
	dead   bool
}

func (cw *crashWriter) Write(p []byte) (int, error) {
	if cw.dead {
		return 0, ErrKilled
	}
	if int64(len(p)) <= cw.remain {
		n, err := cw.w.Write(p)
		cw.remain -= int64(n)
		return n, err
	}
	cw.dead = true
	n := 0
	if cw.remain > 0 {
		var err error
		n, err = cw.w.Write(p[:cw.remain])
		cw.remain -= int64(n)
		if err != nil {
			return n, err
		}
	}
	return n, ErrKilled
}

// WriteFileAtomic writes an artifact via the temp + fsync + rename
// discipline: write writes the content into a temp file in path's
// directory, the temp is fsynced and renamed over path in one step, and
// the directory is fsynced so the rename itself is durable. A crash (or
// injected kill) at any point leaves the previous artifact intact under
// path. target labels the artifact for the kill seam; an armed offset
// at or beyond the content size kills between the last byte and the
// rename — the fully-written-but-never-committed state.
func WriteFileAtomic(path, target string, kill KillFunc, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, TempPrefix+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	var out io.Writer = tmp
	armed := false
	var offset int64
	if kill != nil {
		if offset, armed = kill(target); armed {
			out = &crashWriter{w: tmp, remain: offset}
		}
	}
	cleanup := func(err error) error {
		tmp.Close()
		if !errors.Is(err, ErrKilled) {
			// A real failure cleans up; an injected crash leaves the temp
			// litter a dead process would, for recovery to sweep.
			os.Remove(tmp.Name())
		}
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	if err := write(out); err != nil {
		return cleanup(err)
	}
	if armed {
		// The content fit under the armed offset, so the kill lands in
		// the commit window: after the last byte, before the rename.
		return cleanup(ErrKilled)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		return cleanup(err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory so a just-committed rename survives power
// loss. Errors are ignored: some filesystems refuse directory fsync,
// and the rename itself already happened.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// QuarantineFile moves a corrupt artifact aside (path -> path.corrupt,
// numbered if that name is taken) so recovery can proceed without it
// while the evidence survives for inspection. It returns the new name.
func QuarantineFile(path string) (string, error) {
	dst := path + ".corrupt"
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			break
		}
		dst = fmt.Sprintf("%s.corrupt.%d", path, i)
	}
	if err := os.Rename(path, dst); err != nil {
		return "", fmt.Errorf("durable: quarantine %s: %w", path, err)
	}
	syncDir(filepath.Dir(path))
	return dst, nil
}

// RemoveStaleTemps sweeps abandoned atomic-write temp files out of dir
// (the litter a crash mid-write leaves behind) and reports how many
// were removed. Recovery runs it first.
func RemoveStaleTemps(dir string) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	removed := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), TempPrefix) {
			if os.Remove(filepath.Join(dir, e.Name())) == nil {
				removed++
			}
		}
	}
	return removed
}
