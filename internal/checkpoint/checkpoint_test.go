package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/amlight/intddos/internal/flow"
	"github.com/amlight/intddos/internal/netsim"
	"github.com/amlight/intddos/internal/store"
)

// randSnapshot builds a populated snapshot from a seeded source so
// the property tests are deterministic per seed.
func randSnapshot(seed int64) *Snapshot {
	rng := rand.New(rand.NewSource(seed))
	randKey := func() flow.Key {
		if rng.Intn(4) == 0 {
			var a, b [16]byte
			rng.Read(a[:])
			rng.Read(b[:])
			return flow.Key{
				Src: netip.AddrFrom16(a), Dst: netip.AddrFrom16(b),
				SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
				Proto: netsim.Proto(rng.Intn(256)),
			}
		}
		var a, b [4]byte
		rng.Read(a[:])
		rng.Read(b[:])
		return flow.Key{
			Src: netip.AddrFrom4(a), Dst: netip.AddrFrom4(b),
			SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
			Proto: netsim.Proto(rng.Intn(256)),
		}
	}
	randStats := func() flow.StatsSnapshot {
		return flow.StatsSnapshot{
			N: rng.Intn(1000), Last: rng.NormFloat64(), Sum: rng.NormFloat64() * 1e6,
			Mean: rng.NormFloat64(), M2: rng.ExpFloat64(),
		}
	}
	attack := []string{"", "synflood", "udpflood", "tcpscan"}
	randRec := func() store.FlowRecord {
		feats := make([]float64, rng.Intn(16))
		for i := range feats {
			feats[i] = rng.NormFloat64()
		}
		return store.FlowRecord{
			Key: randKey(), Features: feats,
			RegisteredAt: netsim.Time(rng.Int63()), UpdatedAt: netsim.Time(rng.Int63()),
			Updates: rng.Intn(1e6), Version: rng.Uint64(),
			Truth: rng.Intn(2) == 0, AttackType: attack[rng.Intn(len(attack))],
		}
	}

	shards := 1 + rng.Intn(4)
	snap := &Snapshot{
		Shards:          shards,
		Fingerprint:     rng.Uint64(),
		FeatureWidth:    rng.Intn(32),
		Seq:             rng.Uint64(),
		TakenAtUnixNano: rng.Int63(),
		ShardStates:     make([]ShardState, shards),
	}
	for i := range snap.ShardStates {
		sh := &snap.ShardStates[i]
		for n := rng.Intn(20); n > 0; n-- {
			sh.Table = append(sh.Table, flow.StateSnapshot{
				Key: randKey(), RegisteredAt: netsim.Time(rng.Int63()), LastAt: netsim.Time(rng.Int63()),
				Updates: rng.Intn(1e6), Size: randStats(), IAT: randStats(), Queue: randStats(), HopLat: randStats(),
				LastIngress: netsim.Timestamp32(rng.Uint32()), HaveIngress: rng.Intn(2) == 0,
				HasTelemetry: rng.Intn(2) == 0, AttackObs: rng.Intn(1000),
				LastTruth: rng.Intn(2) == 0, AttackType: attack[rng.Intn(len(attack))],
			})
		}
		for n := rng.Intn(20); n > 0; n-- {
			sh.StoreFlows = append(sh.StoreFlows, randRec())
		}
		for n := rng.Intn(10); n > 0; n-- {
			sh.Store.Journal = append(sh.Store.Journal, store.JournalEntry{Seq: rng.Uint64(), Rec: randRec()})
		}
		sh.Store.Seq = rng.Uint64()
	}
	for n := rng.Intn(15); n > 0; n-- {
		votes := make([]int, rng.Intn(8))
		for i := range votes {
			votes[i] = rng.Intn(2)
		}
		snap.Windows = append(snap.Windows, Window{Key: randKey(), Votes: votes})
	}
	for n := rng.Intn(25); n > 0; n-- {
		votes := make([]int, 1+rng.Intn(5))
		for i := range votes {
			votes[i] = rng.Intn(2)
		}
		snap.Predictions = append(snap.Predictions, store.PredictionRecord{
			Key: randKey(), Label: rng.Intn(2), At: netsim.Time(rng.Int63()),
			Latency: netsim.Time(rng.Int63()), Votes: votes,
			Truth: rng.Intn(2) == 0, AttackType: attack[rng.Intn(len(attack))],
		})
	}
	return snap
}

// TestRoundTripByteIdentical is the format's core property:
// snapshot → encode → decode → encode produces identical bytes, and
// the decoded snapshot carries identical content.
func TestRoundTripByteIdentical(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		snap := randSnapshot(seed)
		enc1 := Encode(snap)
		dec, err := Decode(enc1)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		enc2 := Encode(dec)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("seed %d: re-encode not byte-identical (%d vs %d bytes)", seed, len(enc1), len(enc2))
		}
		// Content survives, modulo the canonical sort Encode applies.
		dec2, err := Decode(enc2)
		if err != nil {
			t.Fatalf("seed %d: second decode: %v", seed, err)
		}
		if !reflect.DeepEqual(dec, dec2) {
			t.Fatalf("seed %d: content diverged across round-trips", seed)
		}
		if dec.Shards != snap.Shards || dec.Fingerprint != snap.Fingerprint ||
			dec.Seq != snap.Seq || dec.FeatureWidth != snap.FeatureWidth ||
			len(dec.Predictions) != len(snap.Predictions) ||
			len(dec.Windows) != len(snap.Windows) {
			t.Fatalf("seed %d: header/content lost", seed)
		}
		// Predictions keep append order verbatim.
		if !reflect.DeepEqual(normalizePreds(dec.Predictions), normalizePreds(snap.Predictions)) {
			t.Fatalf("seed %d: prediction log reordered or altered", seed)
		}
	}
}

// normalizePreds maps nil and empty vote slices to a comparable form
// (the wire format cannot distinguish them).
func normalizePreds(ps []store.PredictionRecord) []store.PredictionRecord {
	out := append([]store.PredictionRecord(nil), ps...)
	for i := range out {
		if len(out[i].Votes) == 0 {
			out[i].Votes = nil
		}
	}
	return out
}

// TestDecodeRejectsCorruption flips, truncates, and forges bytes and
// demands a loud error every time — never a partial load.
func TestDecodeRejectsCorruption(t *testing.T) {
	snap := randSnapshot(7)
	enc := Encode(snap)

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		bad[0] = 'X'
		if _, err := Decode(bad); err == nil {
			t.Fatal("accepted bad magic")
		}
	})
	t.Run("future version", func(t *testing.T) {
		bad := append([]byte(nil), enc...)
		binary.BigEndian.PutUint16(bad[4:6], Version+1)
		if _, err := Decode(bad); err == nil {
			t.Fatal("accepted a future format version")
		}
	})
	t.Run("bad CRC", func(t *testing.T) {
		// Flip one payload byte in every section region; CRC must
		// catch each.
		for off := 16; off < len(enc); off += 97 {
			bad := append([]byte(nil), enc...)
			bad[off] ^= 0xFF
			if _, err := Decode(bad); err == nil {
				t.Fatalf("accepted a flipped byte at offset %d", off)
			}
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for n := 0; n < len(enc)-1; n += 13 {
			if _, err := Decode(enc[:n]); err == nil {
				t.Fatalf("accepted truncation to %d of %d bytes", n, len(enc))
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if _, err := Decode(append(append([]byte(nil), enc...), 0xAB)); err == nil {
			t.Fatal("accepted trailing bytes")
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Decode(nil); err == nil {
			t.Fatal("accepted empty input")
		}
	})
}

// latestFull resolves dir's newest restorable state through
// LatestChain and requires it to be a single full snapshot.
func latestFull(t *testing.T, dir string) (*Snapshot, string, bool, error) {
	t.Helper()
	chain, paths, ok, err := LatestChain(dir)
	if !ok || err != nil {
		return nil, "", ok, err
	}
	if len(chain) != 1 || chain[0].Delta {
		t.Fatalf("want a single-file chain, got %d files (delta=%v)", len(chain), chain[0].Delta)
	}
	return chain[0], paths[0], true, nil
}

func TestWriteLatestPrune(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")

	// A missing dir is a clean first-boot miss.
	if _, _, ok, err := latestFull(t, dir); ok || err != nil {
		t.Fatalf("missing dir: ok=%v err=%v", ok, err)
	}

	var wrote []*Snapshot
	for seq := uint64(1); seq <= 4; seq++ {
		snap := randSnapshot(int64(seq))
		snap.Seq = seq
		path, n, _, err := WriteDirOpts(dir, snap, EncodeOptions{})
		if err != nil || n == 0 {
			t.Fatalf("write seq %d: n=%d err=%v", seq, n, err)
		}
		if filepath.Base(path) != FileName(seq) {
			t.Fatalf("wrote %s, want %s", path, FileName(seq))
		}
		wrote = append(wrote, snap)
	}

	got, path, ok, err := latestFull(t, dir)
	if !ok || err != nil {
		t.Fatalf("latest: ok=%v err=%v", ok, err)
	}
	if got.Seq != 4 || filepath.Base(path) != FileName(4) {
		t.Fatalf("latest picked seq %d (%s), want 4", got.Seq, path)
	}
	if !bytes.Equal(Encode(got), Encode(wrote[3])) {
		t.Fatal("loaded snapshot differs from written")
	}

	// Corrupt the newest: restore must fall back to seq 3.
	if err := os.WriteFile(filepath.Join(dir, FileName(4)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, _, ok, err = latestFull(t, dir)
	if !ok || err != nil || got.Seq != 3 {
		t.Fatalf("fallback: ok=%v err=%v seq=%v", ok, err, got)
	}

	if err := Prune(dir, 2); err != nil {
		t.Fatal(err)
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var left []string
	for _, e := range names {
		left = append(left, e.Name())
	}
	if len(left) != 2 || left[0] != FileName(3) || left[1] != FileName(4) {
		t.Fatalf("prune left %v", left)
	}

	// Every file corrupt → explicit error, not a silent empty start.
	baddir := t.TempDir()
	os.WriteFile(filepath.Join(baddir, FileName(1)), []byte("nope"), 0o644)
	if _, _, ok, err := latestFull(t, baddir); ok || err == nil {
		t.Fatalf("all-corrupt dir: ok=%v err=%v", ok, err)
	}
}

// randTestKeys draws n distinct-with-overwhelming-probability flow
// keys for removal lists.
func randTestKeys(rng *rand.Rand, n int) []flow.Key {
	out := make([]flow.Key, n)
	for i := range out {
		var a, b [4]byte
		rng.Read(a[:])
		rng.Read(b[:])
		out[i] = flow.Key{
			Src: netip.AddrFrom4(a), Dst: netip.AddrFrom4(b),
			SrcPort: uint16(rng.Intn(65536)), DstPort: uint16(rng.Intn(65536)),
			Proto: netsim.Proto(rng.Intn(256)),
		}
	}
	return out
}

// deltaSnapshot builds a randomized incremental snapshot: the
// randSnapshot base plus the version-3 delta surface — parent link,
// per-shard removed keys, removed windows.
func deltaSnapshot(seed int64) *Snapshot {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	snap := randSnapshot(seed)
	snap.Delta = true
	if snap.Seq < 2 {
		snap.Seq = 2
	}
	snap.BaseSeq = snap.Seq - 1
	snap.BaseCRC = rng.Uint32()
	for i := range snap.ShardStates {
		snap.ShardStates[i].Removed = randTestKeys(rng, rng.Intn(6))
	}
	snap.RemovedWindows = randTestKeys(rng, rng.Intn(6))
	snap.Predictions = nil // global log is version-1 only
	return snap
}

// forgeMetaShards rewrites the shard count in a valid encoding's meta
// section and fixes the section CRC, so only the semantic guard — not
// the checksum — stands between the decoder and a hostile count.
func forgeMetaShards(enc []byte, shards uint32) []byte {
	bad := append([]byte(nil), enc...)
	plen := binary.BigEndian.Uint64(bad[7:15]) // after magic+version+id
	payload := bad[15 : 15+plen]
	binary.BigEndian.PutUint32(payload[0:4], shards)
	binary.BigEndian.PutUint32(bad[15+plen:15+plen+4], crc32.ChecksumIEEE(payload))
	return bad
}

// TestDeltaRoundTripByteIdentical extends the core format property to
// incremental snapshots: the delta flag, parent link, and removal
// lists survive encode→decode→encode byte-identically.
func TestDeltaRoundTripByteIdentical(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		snap := deltaSnapshot(seed)
		enc1 := Encode(snap)
		dec, err := Decode(enc1)
		if err != nil {
			t.Fatalf("seed %d: decode delta: %v", seed, err)
		}
		if !dec.Delta || dec.BaseSeq != snap.BaseSeq || dec.BaseCRC != snap.BaseCRC {
			t.Fatalf("seed %d: parent link lost: delta=%v base=%d/%08x want %d/%08x",
				seed, dec.Delta, dec.BaseSeq, dec.BaseCRC, snap.BaseSeq, snap.BaseCRC)
		}
		if len(dec.RemovedWindows) != len(snap.RemovedWindows) {
			t.Fatalf("seed %d: removed-window list lost (%d vs %d)",
				seed, len(dec.RemovedWindows), len(snap.RemovedWindows))
		}
		for s := range snap.ShardStates {
			if len(dec.ShardStates[s].Removed) != len(snap.ShardStates[s].Removed) {
				t.Fatalf("seed %d: shard %d removed list lost", seed, s)
			}
		}
		if enc2 := Encode(dec); !bytes.Equal(enc1, enc2) {
			t.Fatalf("seed %d: delta re-encode not byte-identical (%d vs %d bytes)",
				seed, len(enc1), len(enc2))
		}
	}
}

// TestCompressedRoundTrip pins the compressed-section encoding: the
// stream CRC matches the bytes written, the decoder transparently
// inflates, and the content is exactly the uncompressed encoding's.
func TestCompressedRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		for _, mk := range []func(int64) *Snapshot{randSnapshot, deltaSnapshot} {
			snap := mk(seed)
			var buf bytes.Buffer
			n, crc, err := WriteStream(&buf, snap, EncodeOptions{Compress: true})
			if err != nil {
				t.Fatalf("seed %d: compressed write: %v", seed, err)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("seed %d: reported %d bytes, wrote %d", seed, n, buf.Len())
			}
			if got := crc32.ChecksumIEEE(buf.Bytes()); got != crc {
				t.Fatalf("seed %d: stream CRC %08x, file bytes hash %08x", seed, crc, got)
			}
			dec, err := Decode(buf.Bytes())
			if err != nil {
				t.Fatalf("seed %d: decode compressed: %v", seed, err)
			}
			if !bytes.Equal(Encode(dec), Encode(snap)) {
				t.Fatalf("seed %d: content diverged through compression", seed)
			}
		}
	}
}

// TestCompressedFileRoundTrip runs the same property through the
// atomic file writer, the path the live pipeline actually takes.
func TestCompressedFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	snap := randSnapshot(21)
	snap.Seq = 1
	path, n, crc, err := WriteDirOpts(dir, snap, EncodeOptions{Compress: true})
	if err != nil || n == 0 {
		t.Fatalf("write: n=%d err=%v", n, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := crc32.ChecksumIEEE(data); got != crc {
		t.Fatalf("file CRC %08x, writer reported %08x", got, crc)
	}
	dec, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(Encode(dec), Encode(snap)) {
		t.Fatal("compressed file content diverged")
	}
}

// TestWriteFileExactBytes pins the atomic writer's on-disk contract at
// a spread of awkward sizes: the file holds exactly the stream's bytes
// (no alignment padding survives — the direct-IO path pads its final
// block and must truncate it away) and its whole-file CRC matches what
// the writer reported, which is the value delta chaining depends on.
func TestWriteFileExactBytes(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(0); seed < 8; seed++ {
		snap := randSnapshot(seed)
		snap.Seq = uint64(seed) + 1
		path, n, crc, err := WriteDirOpts(dir, snap, EncodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != n {
			t.Fatalf("seed %d: file is %d bytes, writer reported %d", seed, len(data), n)
		}
		if got := crc32.ChecksumIEEE(data); got != crc {
			t.Fatalf("seed %d: file CRC %08x, writer reported %08x", seed, got, crc)
		}
		if !bytes.Equal(data, Encode(snap)) {
			t.Fatalf("seed %d: file bytes diverge from canonical encoding", seed)
		}
	}
}

// writeChain writes full(1) ← delta(2) ← delta(3) into dir and
// returns each file's whole-file CRC.
func writeChain(t *testing.T, dir string) [3]uint32 {
	t.Helper()
	var crcs [3]uint32
	full := randSnapshot(1)
	full.Seq = 1
	_, _, crc, err := WriteDirOpts(dir, full, EncodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	crcs[0] = crc
	for seq := uint64(2); seq <= 3; seq++ {
		d := deltaSnapshot(int64(seq))
		d.Seq = seq
		d.BaseSeq = seq - 1
		d.BaseCRC = crcs[seq-2]
		_, _, crc, err := WriteDirOpts(dir, d, EncodeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		crcs[seq-1] = crc
	}
	return crcs
}

// TestLatestChain pins chain resolution: base-first order, every link
// verified, and fallback to the longest intact prefix when the newest
// link — or a middle one — is damaged.
func TestLatestChain(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")

	// Missing dir: clean first boot.
	if _, _, ok, err := LatestChain(dir); ok || err != nil {
		t.Fatalf("missing dir: ok=%v err=%v", ok, err)
	}

	crcs := writeChain(t, dir)
	chain, paths, ok, err := LatestChain(dir)
	if !ok || err != nil {
		t.Fatalf("chain: ok=%v err=%v", ok, err)
	}
	if len(chain) != 3 || len(paths) != 3 {
		t.Fatalf("chain length %d, want 3", len(chain))
	}
	for i, want := range []uint64{1, 2, 3} {
		if chain[i].Seq != want {
			t.Fatalf("chain[%d].Seq = %d, want %d (not base-first?)", i, chain[i].Seq, want)
		}
	}
	if chain[0].Delta || !chain[1].Delta || !chain[2].Delta {
		t.Fatal("chain shape wrong: want full,delta,delta")
	}

	// Truncate the newest delta — the crash-mid-chain case. Restore
	// must fall back to the intact [1,2] prefix.
	path3 := filepath.Join(dir, FileName(3))
	good3, err := os.ReadFile(path3)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path3, good3[:len(good3)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	chain, _, ok, err = LatestChain(dir)
	if !ok || err != nil || len(chain) != 2 || chain[1].Seq != 2 {
		t.Fatalf("fallback after torn newest: ok=%v err=%v len=%d", ok, err, len(chain))
	}

	// Restore the newest but rewrite its parent with different (valid)
	// bytes: the recorded BaseCRC no longer matches, so the 3-chain is
	// rejected and resolution falls back to the rewritten 2-chain.
	if err := os.WriteFile(path3, good3, 0o644); err != nil {
		t.Fatal(err)
	}
	alt := deltaSnapshot(99)
	alt.Seq = 2
	alt.BaseSeq = 1
	alt.BaseCRC = crcs[0]
	if _, _, _, err := WriteDirOpts(dir, alt, EncodeOptions{}); err != nil {
		t.Fatal(err)
	}
	chain, _, ok, err = LatestChain(dir)
	if !ok || err != nil || len(chain) != 2 || chain[1].Seq != 2 {
		t.Fatalf("fallback after parent rewrite: ok=%v err=%v len=%d", ok, err, len(chain))
	}

	// Base gone entirely: nothing restorable, loud error.
	os.Remove(filepath.Join(dir, FileName(1)))
	if _, _, ok, err := LatestChain(dir); ok || err == nil {
		t.Fatalf("orphaned deltas: ok=%v err=%v", ok, err)
	}
}

// TestPruneKeepsChainAncestors pins chain-aware retention: pruning to
// one file keeps the newest delta plus every ancestor it needs, and
// removes superseded history.
func TestPruneKeepsChainAncestors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpts")
	writeChain(t, dir) // 1 ← 2 ← 3, all needed by 3

	if err := Prune(dir, 1); err != nil {
		t.Fatal(err)
	}
	names, err := candidates(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 {
		t.Fatalf("prune orphaned the chain: left %v", names)
	}

	// A newer full supersedes the chain: now prune may drop it all.
	full := randSnapshot(4)
	full.Seq = 4
	if _, _, _, err := WriteDirOpts(dir, full, EncodeOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := Prune(dir, 1); err != nil {
		t.Fatal(err)
	}
	names, err = candidates(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != FileName(4) {
		t.Fatalf("prune after new full left %v, want only %s", names, FileName(4))
	}
}

// TestReadMeta pins the cheap meta reader across versions and both
// snapshot kinds.
func TestReadMeta(t *testing.T) {
	dir := t.TempDir()
	crcs := writeChain(t, dir)

	m, err := ReadMeta(filepath.Join(dir, FileName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != Version || m.Seq != 1 || m.Delta {
		t.Fatalf("full meta = %+v", m)
	}
	m, err = ReadMeta(filepath.Join(dir, FileName(3)))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Delta || m.BaseSeq != 2 || m.BaseCRC != crcs[1] {
		t.Fatalf("delta meta = %+v, want base 2/%08x", m, crcs[1])
	}

	// Version-1 file: meta still reads, with no delta surface.
	v1 := randSnapshot(5)
	v1.Seq = 7
	p := filepath.Join(dir, FileName(7))
	if err := os.WriteFile(p, EncodeV1(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err = ReadMeta(p)
	if err != nil {
		t.Fatal(err)
	}
	if m.Version != 1 || m.Seq != 7 || m.Delta {
		t.Fatalf("v1 meta = %+v", m)
	}

	if _, err := ReadMeta(filepath.Join(dir, "nope.amck")); err == nil {
		t.Fatal("missing file read meta")
	}
}

// TestDecodeRejectsHostileShardCount forges an otherwise-valid file
// whose meta section claims an enormous shard count; the decoder must
// reject it by arithmetic — remaining payload cannot hold that many
// shard sections — instead of preallocating gigabytes.
func TestDecodeRejectsHostileShardCount(t *testing.T) {
	enc := Encode(randSnapshot(3))
	for _, n := range []uint32{1 << 20, 1 << 24, 0xFFFFFFFF} {
		if _, err := Decode(forgeMetaShards(enc, n)); err == nil {
			t.Fatalf("accepted forged shard count %d", n)
		}
	}
	// Sanity: re-forging the true count still decodes.
	snap, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(forgeMetaShards(enc, uint32(snap.Shards))); err != nil {
		t.Fatalf("round-tripping the true shard count broke decode: %v", err)
	}
}

// TestPruneRemovesOrphanedTemps: a process killed between creating a
// write's temp file and renaming it into place leaves the temp file
// behind. Prune removes it with the old checkpoints, and keeps every
// checkpoint it would have kept anyway.
func TestPruneRemovesOrphanedTemps(t *testing.T) {
	dir := t.TempDir()
	for seq := uint64(1); seq <= 2; seq++ {
		snap := randSnapshot(int64(seq))
		snap.Seq = seq
		if _, _, _, err := WriteDirOpts(dir, snap, EncodeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	stray := filepath.Join(dir, ".ckpt-4242.tmp")
	if err := os.WriteFile(stray, []byte("half a checkpoint"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := Prune(dir, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Errorf("orphaned temp file survived Prune (stat err %v)", err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if _, err := os.Stat(filepath.Join(dir, FileName(seq))); err != nil {
			t.Errorf("Prune removed a kept checkpoint: %v", err)
		}
	}
	if err := RemoveTemps(filepath.Join(dir, "missing")); err != nil {
		t.Errorf("RemoveTemps on a missing dir: %v", err)
	}
}
