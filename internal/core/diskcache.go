package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// DiskTailorCache is the persistent layer under TailorCache: one file
// per content-addressed entry, so a fleet of servers pointed at a shared
// directory (or one server across restarts) reuses every tailored design
// that has ever been produced for a byte-identical flow input.
//
// Layout: <dir>/<key-hex>.btc, written atomically (temp file + rename).
// Entry format (all integers unsigned varints):
//
//	magic "BTC1" (4 bytes; the version is part of the magic, so any
//	             format change invalidates every old entry cleanly)
//	uvarint len, then the tailored netlist's canonical encoding
//	             (the netlist.Encode codec — the same bytes the
//	             in-memory cache rehydrates from)
//	uvarint len, then the signoff metadata as JSON (Result with the
//	             live cores nulled out)
//	sha256 over everything above (32 bytes)
//
// Decoding never trusts the file: magic and checksum are verified,
// lengths are bounded by the remaining input before any allocation, and
// the rehydration path on top additionally lints the decoded netlist.
// Per-gate STA arrival times (used only by the critical-path listing)
// are not persisted; a disk-rehydrated Result carries the summary
// timing numbers.
//
// All methods are safe for concurrent use by multiple goroutines and
// multiple processes: entries are immutable once renamed into place and
// a half-written temp file is never visible under its final name.
type DiskTailorCache struct {
	dir string
	// swept counts the orphaned temp files removed at open: leftovers
	// of Puts interrupted by a crash or kill between CreateTemp and
	// Rename. They are invisible to Get (never renamed into place), so
	// sweeping them is purely reclamation — but counting them surfaces
	// how unclean the previous shutdown was.
	swept int
}

// diskMagic names the on-disk entry format, version included. Bump the
// trailing digit on any incompatible change: old entries then fail the
// magic check and are treated as misses (and garbage-collected on
// access), never misparsed.
const diskMagic = "BTC1"

// diskEntrySuffix is the entry filename extension.
const diskEntrySuffix = ".btc"

// NewDiskTailorCache opens (creating if needed) the cache directory and
// sweeps temp files orphaned by a crash mid-Put. Completed entries are
// never touched: only never-renamed "put-*.btc.tmp" files are removed.
func NewDiskTailorCache(dir string) (*DiskTailorCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("core: empty disk cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: disk cache: %w", err)
	}
	dc := &DiskTailorCache{dir: dir}
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("core: disk cache: %w", err)
	}
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || !strings.HasPrefix(name, "put-") || !strings.HasSuffix(name, diskEntrySuffix+".tmp") {
			continue
		}
		// Best-effort: in the unlikely event another live process is
		// mid-Put on this file, its Rename fails and is absorbed as a
		// DiskError (a lost write-through, never a failed request).
		if os.Remove(filepath.Join(dir, name)) == nil {
			dc.swept++
		}
	}
	return dc, nil
}

// Swept returns the number of orphaned temp files removed when the
// cache was opened.
func (dc *DiskTailorCache) Swept() int { return dc.swept }

func (dc *DiskTailorCache) path(key Key) string {
	return filepath.Join(dc.dir, key.String()+diskEntrySuffix)
}

// Get loads the entry for key. ok is false when no entry exists; an
// existing but corrupt, truncated or version-skewed entry returns an
// error (callers treat it as a miss and Remove the file).
func (dc *DiskTailorCache) Get(key Key) (ent *cacheEntry, ok bool, err error) {
	data, err := os.ReadFile(dc.path(key))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("core: disk cache: %w", err)
	}
	ent, err = decodeDiskEntry(data)
	if err != nil {
		return nil, false, err
	}
	return ent, true, nil
}

// Put writes the entry for key atomically: the bytes land in a temp
// file in the same directory and are renamed into place, so concurrent
// readers (including other processes) only ever see complete entries.
func (dc *DiskTailorCache) Put(key Key, ent *cacheEntry) error {
	data, err := encodeDiskEntry(ent)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dc.dir, "put-*"+diskEntrySuffix+".tmp")
	if err != nil {
		return fmt.Errorf("core: disk cache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("core: disk cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("core: disk cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), dc.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("core: disk cache: %w", err)
	}
	return nil
}

// Remove deletes the entry for key (no error when absent).
func (dc *DiskTailorCache) Remove(key Key) error {
	err := os.Remove(dc.path(key))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("core: disk cache: %w", err)
	}
	return nil
}

// Len counts the entries currently in the directory.
func (dc *DiskTailorCache) Len() (int, error) {
	des, err := os.ReadDir(dc.dir)
	if err != nil {
		return 0, fmt.Errorf("core: disk cache: %w", err)
	}
	n := 0
	for _, de := range des {
		if !de.IsDir() && filepath.Ext(de.Name()) == diskEntrySuffix {
			n++
		}
	}
	return n, nil
}

// diskResult is the JSON shape of the persisted metadata: exactly the
// stored Result (cores nulled). A named type keeps the wire coupling in
// one place should Result grow fields that must not be persisted.
type diskResult struct {
	Result
}

func encodeDiskEntry(ent *cacheEntry) ([]byte, error) {
	meta, err := json.Marshal(diskResult{ent.result})
	if err != nil {
		return nil, fmt.Errorf("core: disk cache: encoding metadata: %w", err)
	}
	buf := make([]byte, 0, len(diskMagic)+len(ent.bespokeBin)+len(meta)+sha256.Size+16)
	buf = append(buf, diskMagic...)
	buf = binary.AppendUvarint(buf, uint64(len(ent.bespokeBin)))
	buf = append(buf, ent.bespokeBin...)
	buf = binary.AppendUvarint(buf, uint64(len(meta)))
	buf = append(buf, meta...)
	sum := sha256.Sum256(buf)
	buf = append(buf, sum[:]...)
	return buf, nil
}

// decodeDiskEntry parses an on-disk entry. It must never panic on
// arbitrary input (FuzzDiskEntryDecode holds it to that): every length
// is bounded by the remaining input before allocation and the checksum
// is verified before the JSON payload is trusted.
func decodeDiskEntry(data []byte) (*cacheEntry, error) {
	if len(data) < len(diskMagic) || string(data[:len(diskMagic)]) != diskMagic {
		return nil, fmt.Errorf("core: disk cache: bad magic (not a %s entry, or a different format version)", diskMagic)
	}
	if len(data) < len(diskMagic)+sha256.Size {
		return nil, fmt.Errorf("core: disk cache: entry truncated (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], tail) {
		return nil, fmt.Errorf("core: disk cache: checksum mismatch (entry corrupted)")
	}
	pos := len(diskMagic)
	take := func(what string) ([]byte, error) {
		ln, k := binary.Uvarint(body[pos:])
		if k <= 0 {
			return nil, fmt.Errorf("core: disk cache: truncated %s length at byte %d", what, pos)
		}
		pos += k
		if ln > uint64(len(body)-pos) {
			return nil, fmt.Errorf("core: disk cache: %s length %d exceeds remaining %d bytes", what, ln, len(body)-pos)
		}
		b := body[pos : pos+int(ln)]
		pos += int(ln)
		return b, nil
	}
	bin, err := take("netlist")
	if err != nil {
		return nil, err
	}
	meta, err := take("metadata")
	if err != nil {
		return nil, err
	}
	if pos != len(body) {
		return nil, fmt.Errorf("core: disk cache: %d trailing bytes after entry", len(body)-pos)
	}
	var dr diskResult
	if err := json.Unmarshal(meta, &dr); err != nil {
		return nil, fmt.Errorf("core: disk cache: decoding metadata: %w", err)
	}
	// The persisted form must never resurrect live cores; rehydration
	// rebuilds them from the netlist encoding.
	dr.BespokeCore = nil
	dr.BaselineCore = nil
	return &cacheEntry{
		bespokeBin: append([]byte(nil), bin...),
		result:     dr.Result,
	}, nil
}
