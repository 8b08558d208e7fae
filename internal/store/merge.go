package store

// MergeCursor is the merge-on-read view over per-shard prediction
// logs: a k-way merge by the global decision sequence stamped at
// append time. Every log is Seq-sorted — AppendPrediction guarantees
// it by taking the stamp inside the shard's log lock — and the merged
// stream is then the one total order a single shared log would have
// recorded: strictly increasing Seq, no duplicates, no losses. The
// linearization property tests pin exactly this contract.
//
// A cursor reads the logs as they stood when it was made (see
// predLog.view), holding no lock: appends racing it are simply not
// part of the view. Records are materialised one Next at a time, so a
// reader that converts or filters them never holds the whole log
// twice.
type MergeCursor struct {
	logs  []predView
	pos   []int
	votes voteSlab
}

// newMergeCursor returns a cursor over the records of logs with
// Seq > after.
func newMergeCursor(logs []predView, after uint64) *MergeCursor {
	c := &MergeCursor{logs: logs, pos: make([]int, len(logs))}
	if after > 0 {
		for i, log := range logs {
			c.pos[i] = log.after(after)
		}
	}
	return c
}

// Next returns the record with the smallest Seq among the unconsumed
// heads, or ok=false when every log is exhausted.
func (c *MergeCursor) Next() (rec PredictionRecord, ok bool) {
	best := -1
	var bestSeq uint64
	for i, log := range c.logs {
		if c.pos[i] >= log.n {
			continue
		}
		if seq := log.at(c.pos[i]).seq; best < 0 || seq < bestSeq {
			best, bestSeq = i, seq
		}
	}
	if best < 0 {
		return PredictionRecord{}, false
	}
	rec = c.logs[best].record(c.pos[best], &c.votes)
	c.pos[best]++
	return rec, true
}

// Remaining returns how many records the cursor has not yet yielded.
func (c *MergeCursor) Remaining() int {
	n := 0
	for i, log := range c.logs {
		n += log.n - c.pos[i]
	}
	return n
}

// appendTo drains the cursor onto dst.
func (c *MergeCursor) appendTo(dst []PredictionRecord) []PredictionRecord {
	for rec, ok := c.Next(); ok; rec, ok = c.Next() {
		dst = append(dst, rec)
	}
	return dst
}
