package checkpoint

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// maxChainLen bounds how many delta files a restore will walk before
// declaring the chain corrupt — a cycle or a forged BaseSeq ladder
// must not turn restore into an unbounded file walk.
const maxChainLen = 4096

// FileName returns the canonical file name for a checkpoint sequence
// number. Zero-padded so lexical order is sequence order. Full and
// delta snapshots share the naming scheme: which one a file is lives
// in its meta section, not its name.
func FileName(seq uint64) string {
	return fmt.Sprintf("ckpt-%016d.amck", seq)
}

// WriteOpts encodes snap (optionally with compressed sections) and
// writes it to path atomically: streamed into a temp file in the same
// directory — never materializing the whole encoding in memory — then
// fsync, rename, directory fsync. A crash at any point leaves either
// no file or a complete one. On Linux the stream goes through
// O_DIRECT when the filesystem supports it (see writeTempContents):
// checkpoints are written once and read only on restore, so routing
// hundreds of MB through the page cache buys nothing and dirty-page
// writeback throttling can cap a buffered fsync at a tiny fraction of
// what the device sustains. Returns the encoded size and the
// whole-file CRC, which a subsequent delta records as its BaseCRC.
func WriteOpts(path string, snap *Snapshot, opt EncodeOptions) (int, uint32, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tempPattern)
	if err != nil {
		return 0, 0, fmt.Errorf("checkpoint: create temp: %w", err)
	}
	tmpName := tmp.Name()
	n, crc, err := writeTempContents(tmp, tmpName, snap, opt)
	if err != nil {
		os.Remove(tmpName)
		return 0, 0, fmt.Errorf("checkpoint: write temp: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return 0, 0, fmt.Errorf("checkpoint: rename into place: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		// Sync the directory so the rename itself is durable; best
		// effort on filesystems that reject directory fsync.
		d.Sync()
		d.Close()
	}
	return int(n), crc, nil
}

// writeTempBuffered is the portable temp-file writer: a 1 MB buffered
// stream, flush, fsync, close. Takes ownership of tmp.
func writeTempBuffered(tmp *os.File, snap *Snapshot, opt EncodeOptions) (int64, uint32, error) {
	bw := bufio.NewWriterSize(tmp, 1<<20)
	n, crc, err := WriteStream(bw, snap, opt)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	return n, crc, err
}

// WriteDirOpts writes snap into dir (created if absent) under its
// canonical sequence-numbered name and returns the path, the encoded
// size, and the whole-file CRC for delta chaining.
func WriteDirOpts(dir string, snap *Snapshot, opt EncodeOptions) (string, int, uint32, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, 0, fmt.Errorf("checkpoint: mkdir %s: %w", dir, err)
	}
	path := filepath.Join(dir, FileName(snap.Seq))
	n, crc, err := WriteOpts(path, snap, opt)
	return path, n, crc, err
}

// Load reads and decodes one checkpoint file.
func Load(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read %s: %w", path, err)
	}
	snap, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return snap, nil
}

// LatestChain resolves the newest restorable state in dir: the newest
// valid snapshot plus — when it is a delta — every ancestor back to
// its full base, each parent verified by the (BaseSeq, BaseCRC) link
// its child recorded. The chain is returned base-first, ready to
// replay in order. A candidate whose chain is broken (torn file,
// missing parent, CRC mismatch — a crash mid-delta-chain) is skipped
// and the next-newest candidate tried, so restore falls back to the
// longest intact prefix of history. ok is false when dir holds no
// restorable chain at all.
func LatestChain(dir string) (chain []*Snapshot, paths []string, ok bool, err error) {
	names, err := candidates(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, false, nil
		}
		return nil, nil, false, err
	}
	var lastErr error
	for i := len(names) - 1; i >= 0; i-- {
		chain, paths, err := loadChain(dir, names[i])
		if err != nil {
			lastErr = err
			continue
		}
		return chain, paths, true, nil
	}
	if lastErr != nil {
		return nil, nil, false, fmt.Errorf("checkpoint: no restorable chain in %s (newest failure: %w)", dir, lastErr)
	}
	return nil, nil, false, nil
}

// loadChain loads the snapshot in name and walks its parent links
// back to a full base, verifying each (seq, CRC) link. Returned
// base-first.
func loadChain(dir, name string) ([]*Snapshot, []string, error) {
	path := filepath.Join(dir, name)
	snap, err := Load(path)
	if err != nil {
		return nil, nil, err
	}
	chain := []*Snapshot{snap}
	paths := []string{path}
	for chain[0].Delta {
		if len(chain) >= maxChainLen {
			return nil, nil, fmt.Errorf("checkpoint: %s: delta chain longer than %d files", path, maxChainLen)
		}
		child := chain[0]
		if child.BaseSeq >= child.Seq {
			return nil, nil, fmt.Errorf("checkpoint: %s: delta seq %d chains to non-older base %d", paths[0], child.Seq, child.BaseSeq)
		}
		ppath := filepath.Join(dir, FileName(child.BaseSeq))
		pdata, err := os.ReadFile(ppath)
		if err != nil {
			return nil, nil, fmt.Errorf("checkpoint: %s: missing chain parent: %w", paths[0], err)
		}
		if got := crc32.ChecksumIEEE(pdata); got != child.BaseCRC {
			return nil, nil, fmt.Errorf("checkpoint: %s: chain parent %s CRC %08x, child expects %08x",
				paths[0], ppath, got, child.BaseCRC)
		}
		parent, err := Decode(pdata)
		if err != nil {
			return nil, nil, fmt.Errorf("checkpoint: %s: %w", ppath, err)
		}
		if parent.Seq != child.BaseSeq {
			return nil, nil, fmt.Errorf("checkpoint: %s: parent carries seq %d, child chains to %d", ppath, parent.Seq, child.BaseSeq)
		}
		chain = append([]*Snapshot{parent}, chain...)
		paths = append([]string{ppath}, paths...)
	}
	return chain, paths, nil
}

// Meta is the cheaply-readable identity of a checkpoint file: its
// format version, sequence number, and — for deltas — the parent
// link. ReadMeta parses only the meta section, so retention can walk
// chains without decoding gigabytes of payload.
type Meta struct {
	Version uint16
	Seq     uint64
	Delta   bool
	BaseSeq uint64
	BaseCRC uint32
}

// ReadMeta reads and validates just the header and meta section of a
// checkpoint file.
func ReadMeta(path string) (Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, fmt.Errorf("checkpoint: open %s: %w", path, err)
	}
	defer f.Close()
	var hdr [15]byte // magic, version, section id, payload length
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return Meta{}, fmt.Errorf("checkpoint: %s: short meta header: %w", path, err)
	}
	if string(hdr[:4]) != string(magic[:]) {
		return Meta{}, fmt.Errorf("checkpoint: %s: bad magic %q", path, hdr[:4])
	}
	m := Meta{Version: binary.BigEndian.Uint16(hdr[4:6])}
	if m.Version == 0 || m.Version > Version {
		return Meta{}, fmt.Errorf("checkpoint: %s: unsupported format version %d", path, m.Version)
	}
	if hdr[6] != secMeta {
		return Meta{}, fmt.Errorf("checkpoint: %s: first section is %d, not meta", path, hdr[6])
	}
	plen := binary.BigEndian.Uint64(hdr[7:15])
	if plen > 1<<10 {
		return Meta{}, fmt.Errorf("checkpoint: %s: implausible meta section size %d", path, plen)
	}
	payload := make([]byte, plen+4)
	if _, err := io.ReadFull(f, payload); err != nil {
		return Meta{}, fmt.Errorf("checkpoint: %s: short meta section: %w", path, err)
	}
	body, want := payload[:plen], binary.BigEndian.Uint32(payload[plen:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return Meta{}, fmt.Errorf("checkpoint: %s: meta CRC mismatch (got %08x, want %08x)", path, got, want)
	}
	r := &reader{buf: body}
	r.u32() // shards
	r.u64() // fingerprint
	r.u32() // feature width
	m.Seq = r.u64()
	r.i64() // taken-at
	if m.Version >= 3 {
		flags := r.u8()
		m.Delta = flags&flagDelta != 0
		m.BaseSeq = r.u64()
		m.BaseCRC = r.u32()
	}
	if r.err != nil {
		return Meta{}, fmt.Errorf("checkpoint: %s: %w", path, r.err)
	}
	return m, nil
}

// tempPattern names WriteOpts's temp files; a process killed between
// creating one and renaming it into place leaves it behind.
const tempPattern = ".ckpt-*.tmp"

// RemoveTemps removes the temp files of writes that never reached
// their rename. Call it only when no write into dir is in progress: a
// live one's temp file matches too. A missing dir holds none.
func RemoveTemps(dir string) error {
	temps, err := filepath.Glob(filepath.Join(dir, tempPattern))
	if err != nil {
		return err
	}
	for _, p := range temps {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("checkpoint: remove temp: %w", err)
		}
	}
	return nil
}

// Prune removes old checkpoint files from dir, keeping the newest
// keep files plus every chain ancestor a kept delta still needs —
// deleting a delta's base would orphan the delta, so retention
// follows parent links (meta-section reads only) before deleting
// anything. Files whose meta cannot be read are treated as
// chain-less: they are kept or removed purely by age, exactly like a
// torn file restore would skip. Temp files of writes that never
// completed go too (RemoveTemps), so Prune, like RemoveTemps, must not
// run beside a write into dir.
func Prune(dir string, keep int) error {
	if keep < 1 {
		keep = 1
	}
	if err := RemoveTemps(dir); err != nil {
		return err
	}
	names, err := candidates(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	if len(names) <= keep {
		return nil
	}
	keepSet := make(map[string]bool, keep)
	for _, name := range names[len(names)-keep:] {
		keepSet[name] = true
	}
	// Walk each kept file's chain and retain the ancestors it needs.
	for _, name := range names[len(names)-keep:] {
		cur := name
		for hops := 0; hops < maxChainLen; hops++ {
			m, err := ReadMeta(filepath.Join(dir, cur))
			if err != nil || !m.Delta {
				break
			}
			parent := FileName(m.BaseSeq)
			if keepSet[parent] {
				break
			}
			keepSet[parent] = true
			cur = parent
		}
	}
	for _, name := range names {
		if keepSet[name] {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("checkpoint: prune %s: %w", name, err)
		}
	}
	return nil
}

// candidates lists checkpoint file names in dir in ascending sequence
// order (the zero-padded names make lexical order sequence order).
func candidates(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if strings.HasPrefix(name, "ckpt-") && strings.HasSuffix(name, ".amck") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}
