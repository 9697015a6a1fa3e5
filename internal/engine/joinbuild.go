package engine

import "sync"

// Parallel hash-join build: the build side is scanned morsel-by-morsel into
// per-morsel key buckets, which shard workers then merge into per-shard hash
// tables ("per-worker partial tables merged by partition"). Determinism: a
// key's posting list is the concatenation of its bucket entries in morsel
// order, and entries within a morsel are appended in row order, so every
// list is exactly the ascending build-row positions the serial build
// produces — the probe phase cannot observe which shard a key lives in.

// buildIndex maps encoded join keys to ascending build-side row positions,
// sharded by key hash when built in parallel (one shard = the serial case).
type buildIndex struct {
	shards []map[string][]int
}

// lookup returns the posting list for an encoded key.
func (ix *buildIndex) lookup(key []byte) []int {
	if len(ix.shards) == 1 {
		return ix.shards[0][string(key)]
	}
	return ix.shards[buildShard(key, len(ix.shards))][string(key)]
}

// size returns the total number of distinct keys (for tests).
func (ix *buildIndex) size() int {
	n := 0
	for _, m := range ix.shards {
		n += len(m)
	}
	return n
}

// buildShard assigns an encoded key to one of n shards (FNV-1a).
func buildShard(key []byte, n int) int {
	h := uint32(2166136261)
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	return int(h % uint32(n))
}

// encodeJoinKey appends the hash-key encoding of a row's join-key columns
// to scratch, returning the extended slice and whether any key column was
// NULL (NULL join keys never match and are skipped entirely).
func encodeJoinKey(scratch []byte, row []Value, idxs func(int) int, n int, keyBuf []Value) ([]byte, bool) {
	for i := 0; i < n; i++ {
		v := row[idxs(i)]
		if v.IsNull() {
			return scratch, true
		}
		keyBuf[i] = v
	}
	return AppendRowKey(scratch, keyBuf), false
}

// buildJoinIndex builds the hash index over the build (right) side. With
// multiple workers and morsels the build fans out in two phases; otherwise
// it is one serial columnar pass. Callers always have at least one key. The
// error return carries cancellation (the
// build can dominate a join's cost, so it must be interruptible) and
// recovered worker panics.
func (ctx *execContext) buildJoinIndex(keys []equiKey, rows [][]Value) (*buildIndex, error) {
	spans := morselSpans(len(rows), ctx.morsel)
	workers := spanWorkers(len(spans), ctx.workers)
	rightIdx := func(i int) int { return keys[i].rightIdx }
	if workers <= 1 || len(spans) <= 1 {
		// Columnar build: gather the key columns into typed vectors one
		// morsel at a time and encode from the slabs. appendRowKeyVecs
		// matches AppendRowKey byte-for-byte, so the index keys are the ones
		// encodeJoinKey produces for the parallel build and the probe side.
		index := make(map[string][]int, len(rows))
		kvecs := make([]*vector, len(keys))
		for k := range kvecs {
			kvecs[k] = &vector{}
		}
		var scratch []byte
		var sel []int
		for _, s := range spans {
			if err := ctx.err(); err != nil {
				return nil, err
			}
			sel = sel[:0]
			for ri := s.lo; ri < s.hi; ri++ {
				sel = append(sel, ri)
			}
			for k := range keys {
				loadColumn(rows, sel, keys[k].rightIdx, kvecs[k])
			}
		rowLoop:
			for i, ri := range sel {
				for _, kv := range kvecs {
					if kv.null[i] {
						continue rowLoop
					}
				}
				scratch = appendRowKeyVecs(scratch[:0], kvecs, i)
				index[string(scratch)] = append(index[string(scratch)], ri)
			}
		}
		return &buildIndex{shards: []map[string][]int{index}}, nil
	}

	shardCount := workers
	// Phase 1: each morsel encodes its keys into a private arena and buckets
	// (shard, row) entries. Arenas keep per-row key bytes from costing one
	// allocation each.
	type entry struct {
		ri, off, n int
	}
	type bucketSet struct {
		arena   []byte
		entries [][]entry
	}
	buckets := make([]bucketSet, len(spans))
	if err := ctx.runSpans(spans, workers, func(_, m int, s span) error {
		bs := bucketSet{entries: make([][]entry, shardCount)}
		keyBuf := make([]Value, len(keys))
		for ri := s.lo; ri < s.hi; ri++ {
			off := len(bs.arena)
			arena, null := encodeJoinKey(bs.arena, rows[ri], rightIdx, len(keys), keyBuf)
			bs.arena = arena
			if null {
				continue
			}
			kb := bs.arena[off:]
			sh := buildShard(kb, shardCount)
			bs.entries[sh] = append(bs.entries[sh], entry{ri: ri, off: off, n: len(kb)})
		}
		buckets[m] = bs
		return nil
	}); err != nil {
		return nil, err
	}

	// Phase 2: shard workers own disjoint key ranges, so the merge needs no
	// locks; scanning morsels in index order keeps posting lists ascending.
	// Each shard goroutine recovers its own panics (lowest shard index wins,
	// mirroring runSpans' lowest-morsel rule) so a poisoned bucket fails the
	// query, not the process.
	shards := make([]map[string][]int, shardCount)
	errs := make([]error, shardCount)
	var wg sync.WaitGroup
	wg.Add(shardCount)
	for sh := 0; sh < shardCount; sh++ {
		go func(sh int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[sh] = toPanicError(r)
				}
			}()
			mp := make(map[string][]int)
			for m := range buckets {
				arena := buckets[m].arena
				for _, e := range buckets[m].entries[sh] {
					k := string(arena[e.off : e.off+e.n])
					mp[k] = append(mp[k], e.ri)
				}
			}
			shards[sh] = mp
		}(sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return &buildIndex{shards: shards}, nil
}
