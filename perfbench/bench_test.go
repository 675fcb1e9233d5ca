package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/registry"
	"repro/internal/server"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed, so percentile must sort
		}
		return xs
	}
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Fatal("p99 reported from 999 samples")
	}
	if v, ok := percentile(seq(1000), 0.99); !ok || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(seq(19), 0.5); ok {
		t.Fatal("p50 reported from 19 samples")
	}
	if v, ok := percentile(seq(20), 0.5); !ok || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
}

// An open-loop operation stuck behind a stall is charged the wait from its
// due time, while a closed-loop one is timed from its send.
func TestOpenLoopLatencyFromDue(t *testing.T) {
	const stall = 50 * time.Millisecond
	var conn sync.Mutex // one connection, held by the first operation
	var mu sync.Mutex
	lats := map[int]time.Duration{}
	dues := map[int]time.Time{}
	start := time.Now()
	openLoop(start, start.Add(5*time.Millisecond), 1000, func(i int, due time.Time) {
		sent := time.Now()
		conn.Lock()
		if i == 0 {
			time.Sleep(stall)
		}
		conn.Unlock()
		lat := latency(due, sent, time.Now())
		mu.Lock()
		lats[i], dues[i] = lat, due
		mu.Unlock()
	})
	if len(lats) != 5 {
		t.Fatalf("ran %d operations, want 5", len(lats))
	}
	for i := 0; i < 5; i++ {
		if want := start.Add(time.Duration(i) * time.Millisecond); !dues[i].Equal(want) {
			t.Fatalf("op %d due %v after start, want %v", i, dues[i].Sub(start), want.Sub(start))
		}
	}
	if lats[4] < stall/2 {
		t.Fatalf("op 4 latency %v does not include the %v stall it waited behind", lats[4], stall)
	}
	// A late generator is charged too: latency runs from due, not send.
	due := time.Now()
	sent, end := due.Add(10*time.Millisecond), due.Add(11*time.Millisecond)
	if got := latency(due, sent, end); got != 11*time.Millisecond {
		t.Fatalf("open-loop latency %v, want 11ms from due", got)
	}
	if got := latency(time.Time{}, sent, end); got != time.Millisecond {
		t.Fatalf("closed-loop latency %v, want 1ms from send", got)
	}
}

// contains reports whether b lies inside c on every axis.
func (c box) contains(b box) bool {
	for i := range c.lo {
		if b.lo[i] < c.lo[i] || b.hi[i] > c.hi[i] {
			return false
		}
	}
	return true
}

func TestNestedRegionsContained(t *testing.T) {
	q := newQuerySeq(7, regionsHot, 4)
	h := q.regions.(*hotRegions)
	var parents, children []box
	for _, b := range h.boxes {
		switch w := b.hi[0] - b.lo[0]; {
		case w > (parentSigma+childSigma)/2:
			parents = append(parents, b)
		default:
			children = append(children, b)
		}
	}
	if len(parents) != hotParents || len(children) != hotParents*hotChildren {
		t.Fatalf("%d parents, %d children; want %d, %d", len(parents), len(children), hotParents, hotParents*hotChildren)
	}
	for i, c := range children {
		n := 0
		for _, p := range parents {
			if p.contains(c) {
				n++
			}
		}
		if n == 0 {
			t.Fatalf("child %d %v..%v lies in no parent", i, c.lo, c.hi)
		}
	}
	for _, b := range h.boxes {
		s := 0.0
		for _, v := range b.hi {
			s += v
		}
		if s > 1 {
			t.Fatalf("box %v..%v leaves the preference simplex", b.lo, b.hi)
		}
	}
}

func TestSequencesDeterministic(t *testing.T) {
	for _, regions := range []int{regionsUnique, regionsHot} {
		a, b := newQuerySeq(3, regions, 4), newQuerySeq(3, regions, 4)
		b.at(150) // generation order must not matter
		for i := 0; i < 200; i++ {
			if !bytes.Equal(a.at(i).body, b.at(i).body) || a.at(i).utk2 != b.at(i).utk2 {
				t.Fatalf("regions %d: query %d differs between equal seeds", regions, i)
			}
		}
		if c := newQuerySeq(4, regions, 4); bytes.Equal(c.at(0).body, a.at(0).body) && bytes.Equal(c.at(1).body, a.at(1).body) {
			t.Fatalf("regions %d: seeds 3 and 4 give the same queries", regions)
		}
	}
	w := workload{churnEvery: 3, deletes: 4, inserts: 4, nearTopEvery: 2}
	a, b := newBatchSeq(5, 1000, w), newBatchSeq(5, 1000, w)
	seen := map[int]bool{}
	for i := 0; i < 60; i++ {
		x, err := a.at(i)
		if err != nil {
			t.Fatal(err)
		}
		y, _ := b.at(i)
		if !bytes.Equal(x.body, y.body) {
			t.Fatalf("batch %d differs between equal seeds", i)
		}
		churn := i%3 == 2
		if churn != (len(x.deletes) == 4) || (!churn && len(x.inserts) != 1) {
			t.Fatalf("batch %d has %d deletes, %d inserts", i, len(x.deletes), len(x.inserts))
		}
		for _, id := range x.deletes {
			if seen[id] {
				t.Fatalf("batch %d deletes id %d twice", i, id)
			}
			seen[id] = true
		}
	}
}

// The gate accepts the server's own answers, before and after an update,
// and rejects a corrupted one.
func TestGateRejectsCorruptAnswer(t *testing.T) {
	const n = 3000
	recs := dataset.Synthetic(dataset.IND, n, dims, 9)
	reg := registry.New()
	if _, err := reg.Create(datasetName, recs, registry.Options{MaxK: maxK}); err != nil {
		t.Fatal(err)
	}
	h := server.New(reg, server.Config{})
	post := func(path string, body []byte) []byte {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d %s", path, rr.Code, rr.Body)
		}
		return rr.Body.Bytes()
	}

	l := newLedger(n)
	bs := newBatchSeq(2, n, workload{churnEvery: 1, deletes: 5, inserts: 5, nearTopEvery: 1})
	b, err := bs.at(0)
	if err != nil {
		t.Fatal(err)
	}
	var upd struct {
		InsertedIDs []int `json:"inserted_ids"`
	}
	if err := json.Unmarshal(post("/update/"+datasetName, b.body), &upd); err != nil {
		t.Fatal(err)
	}
	if err := l.apply(b, upd.InsertedIDs); err != nil {
		t.Fatal(err)
	}
	live, ids := l.liveRecords(recs)
	o, err := newOracle(live, ids)
	if err != nil {
		t.Fatal(err)
	}

	qs := newQuerySeq(1, regionsUnique, 2)
	checked := map[bool]bool{}
	for i := 0; len(checked) < 2 || i < 6; i++ {
		q := qs.at(i)
		body := post(q.path(), q.body)
		if err := o.check(q, body); err != nil {
			t.Fatalf("server answer rejected: %v", err)
		}
		var ans map[string]any
		if err := json.Unmarshal(body, &ans); err != nil {
			t.Fatal(err)
		}
		if q.utk2 {
			cell := ans["cells"].([]any)[0].(map[string]any)
			top := cell["top_k"].([]any)
			top[0] = float64(n + 1000) // an id that is not live
		} else {
			recs := ans["records"].([]any)
			ans["records"] = recs[1:]
		}
		bad, _ := json.Marshal(ans)
		if err := o.check(q, bad); err == nil || !strings.Contains(err.Error(), "want") {
			t.Fatalf("corrupted utk%d answer accepted (err %v)", variant(q), err)
		}
		checked[q.utk2] = true
	}
}
