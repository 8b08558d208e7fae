package store

// arenaChunkLen is how many feature values one arena chunk holds
// (32 KiB, about 270 rows of the 15-feature vector).
const arenaChunkLen = 4096

// rowArena holds one journal stripe's feature rows. AppendJournal and
// UpsertFlow copy each row into the newest chunk, in journal order, so
// once the chunks are warm a row allocates nothing. Chunks are
// recycled, never freed:
//
//   - a poll copies its records' rows out, since its caller keeps them;
//     the trim after it recycles every chunk before the one holding the
//     oldest entry left (all of them when none is left);
//   - a drain lends every chunk to its caller, whose records read them
//     until the caller's next drain, which takes them back (the
//     caller's spent arena becomes the journal's spare).
//
// Guarded by the owning DB's jmu. Bounded by twice the largest backlog
// between two drains, or by the backlog a trim leaves.
type rowArena struct {
	chunks [][]float64 // rows live here, oldest first; the last fills at off
	base   uint64      // absolute number of chunks[0]
	off    int
	lent   [][]float64 // the chunks the last drain handed its caller
	spare  [][]float64
}

// put copies row into the arena and returns the copy, capped so an
// append by its holder never reaches a neighbour, and the absolute
// number of the chunk holding it. An empty row stays nil, numbered
// with the newest chunk so numbers never decrease in journal order.
func (a *rowArena) put(row []float64) ([]float64, uint64) {
	if len(row) == 0 {
		return nil, a.base + uint64(max(len(a.chunks)-1, 0))
	}
	if len(a.chunks) == 0 || a.off+len(row) > len(a.chunks[len(a.chunks)-1]) {
		a.grow(len(row))
	}
	out := a.chunks[len(a.chunks)-1][a.off : a.off+len(row) : a.off+len(row)]
	copy(out, row)
	a.off += len(row)
	return out, a.base + uint64(len(a.chunks)) - 1
}

// grow starts a chunk of at least need values, recycled when a spare
// one fits.
func (a *rowArena) grow(need int) {
	var c []float64
	if n := len(a.spare); n > 0 && len(a.spare[n-1]) >= need {
		c, a.spare = a.spare[n-1], a.spare[:n-1]
	} else {
		c = make([]float64, max(arenaChunkLen, need))
	}
	a.chunks = append(a.chunks, c)
	a.off = 0
}

// release recycles the chunks before absolute number first: no journal
// entry reads them any more.
func (a *rowArena) release(first uint64) {
	k := int(first - a.base)
	a.spare = append(a.spare, a.chunks[:k]...)
	n := copy(a.chunks, a.chunks[k:])
	clear(a.chunks[n:])
	a.chunks = a.chunks[:n]
	a.base = first
}

// trimmed releases what a trim left unread: journal is what remains.
func (a *rowArena) trimmed(journal []journalEntry) {
	if len(journal) == 0 {
		a.release(a.base + uint64(len(a.chunks)))
	} else {
		a.release(journal[0].chunk)
	}
}

// lend hands every chunk to a drain's caller and takes back the chunks
// the previous drain lent, which that caller has now finished with.
func (a *rowArena) lend() {
	a.spare = append(a.spare, a.lent...)
	clear(a.lent)
	a.lent = append(a.lent[:0], a.chunks...)
	clear(a.chunks)
	a.base += uint64(len(a.chunks))
	a.chunks, a.off = a.chunks[:0], 0
}

// rowsLen sums the entries' row lengths: the slab detached cuts from.
func rowsLen(es []journalEntry) int {
	n := 0
	for i := range es {
		n += len(es[i].rec.Features)
	}
	return n
}

// detached returns e's record with its row copied off the front of
// *slab, so the record outlives the arena chunk the row was read from.
// A poll's records share one slab: one allocation a poll, not one a row.
func detached(e *journalEntry, slab *[]float64) FlowRecord {
	rec := e.rec
	if n := len(rec.Features); n > 0 {
		rec.Features = (*slab)[:n:n]
		copy(rec.Features, e.rec.Features)
		*slab = (*slab)[n:]
	}
	return rec
}
