package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"

	utk "repro"
)

// ledger is the writer's own account of the live records: which initial
// ids it deleted and which of its inserts are live under which ids.
type ledger struct {
	mu       sync.Mutex
	n        int
	deleted  map[int]bool
	inserted map[int][]float64
	acked    []*batch // in acknowledgement order
}

func newLedger(n int) *ledger {
	return &ledger{n: n, deleted: make(map[int]bool), inserted: make(map[int][]float64)}
}

// apply records an acknowledged batch and the ids its inserts received.
func (l *ledger) apply(b *batch, insertedIDs []int) error {
	if !slices.Equal(insertedIDs, b.ids) {
		return fmt.Errorf("inserts were assigned ids %v, want %v", insertedIDs, b.ids)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, id := range b.deletes {
		if id < l.n {
			l.deleted[id] = true
		} else {
			delete(l.inserted, id)
		}
	}
	for i, id := range insertedIDs {
		l.inserted[id] = b.inserts[i]
	}
	l.acked = append(l.acked, b)
	return nil
}

func (l *ledger) live() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n - len(l.deleted) + len(l.inserted)
}

// liveRecords returns the live records and their server ids, in ascending
// id order, so a Dataset built from them breaks score ties the same way.
func (l *ledger) liveRecords(initial [][]float64) ([][]float64, []int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	recs := make([][]float64, 0, len(initial)+len(l.inserted))
	ids := make([]int, 0, cap(recs))
	for id, rec := range initial {
		if !l.deleted[id] {
			recs = append(recs, rec)
			ids = append(ids, id)
		}
	}
	extra := make([]int, 0, len(l.inserted))
	for id := range l.inserted {
		extra = append(extra, id)
	}
	sort.Ints(extra)
	for _, id := range extra {
		recs = append(recs, l.inserted[id])
		ids = append(ids, id)
	}
	return recs, ids
}

// answer is the part of a /utk1 or /utk2 response the gate checks.
type answer struct {
	Records []int `json:"records"`
	Cells   []struct {
		TopK     []int     `json:"top_k"`
		Interior []float64 `json:"interior"`
	} `json:"cells"`
}

// oracle recomputes answers with direct Dataset calls on the live records.
type oracle struct {
	ds  *utk.Dataset
	ids []int // Dataset index → server id

	calls, lpCalls, drills, drillHits int
}

func newOracle(recs [][]float64, ids []int) (*oracle, error) {
	ds, err := utk.NewDataset(recs)
	if err != nil {
		return nil, err
	}
	return &oracle{ds: ds, ids: ids}, nil
}

func (o *oracle) serverIDs(local []int) []int {
	out := make([]int, len(local))
	for i, id := range local {
		out[i] = o.ids[id]
	}
	sort.Ints(out)
	return out
}

// check compares one server answer (the raw response body) with the
// direct computation. UTK1 answers must equal Dataset.UTK1. Every UTK2
// cell's top-k set must equal Dataset.TopK at the cell's interior point,
// and the cells' sets together must cover exactly the records Dataset.UTK2
// reports.
func (o *oracle) check(q *query, body []byte) error {
	var ans answer
	if err := json.Unmarshal(body, &ans); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	region, err := utk.NewBoxRegion(q.region.lo, q.region.hi)
	if err != nil {
		return err
	}
	uq := utk.Query{K: q.k, Region: region}
	var want []int
	var st utk.Stats
	if q.utk2 {
		res, err := o.ds.UTK2(uq)
		if err != nil {
			return err
		}
		st = res.Stats
		seen := map[int]bool{}
		for _, c := range res.Cells {
			for _, id := range c.TopK {
				if !seen[id] {
					seen[id] = true
					want = append(want, id)
				}
			}
		}
	} else {
		res, err := o.ds.UTK1(uq)
		if err != nil {
			return err
		}
		st = res.Stats
		want = res.Records
	}
	o.calls++
	o.lpCalls += st.LPCalls
	o.drills += st.Drills
	o.drillHits += st.DrillHits
	want = o.serverIDs(want)

	got := append([]int(nil), ans.Records...)
	if q.utk2 {
		if len(ans.Cells) == 0 {
			return fmt.Errorf("utk2 k=%d: no cells", q.k)
		}
		got = got[:0]
		seen := map[int]bool{}
		for i, c := range ans.Cells {
			top, err := o.ds.TopK(c.Interior, q.k)
			if err != nil {
				return fmt.Errorf("utk2 k=%d cell %d: %w", q.k, i, err)
			}
			cell := append([]int(nil), c.TopK...)
			sort.Ints(cell)
			if exp := o.serverIDs(top); !slices.Equal(cell, exp) {
				return fmt.Errorf("utk2 k=%d cell %d at %v: top-k %v, want %v", q.k, i, c.Interior, cell, exp)
			}
			for _, id := range c.TopK {
				if !seen[id] {
					seen[id] = true
					got = append(got, id)
				}
			}
		}
	}
	sort.Ints(got)
	if !slices.Equal(got, want) {
		return fmt.Errorf("utk%d k=%d region %v..%v: records %v, want %v", variant(q), q.k, q.region.lo, q.region.hi, got, want)
	}
	return nil
}

func variant(q *query) int {
	if q.utk2 {
		return 2
	}
	return 1
}
