package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestOpenLoopChargesStallToQueuedRequests drives a server whose first
// request stalls. Over one connection the ops due during the stall wait for
// it, and their latency, timed from the due time, must include that wait.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		stall    = 120 * time.Millisecond
		interval = 10 * time.Millisecond
		n        = 8
	)
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { time.Sleep(stall) })
	}))
	defer srv.Close()
	client := newClient(1)

	var mu sync.Mutex
	latency := make([]time.Duration, n)
	fromSend := make([]time.Duration, n)
	sent := pace(0, n, 1, interval, time.Now().Add(time.Minute), func(k int, due time.Time) {
		start := time.Now()
		resp, err := client.Get(srv.URL)
		if err != nil {
			t.Error(err)
			return
		}
		resp.Body.Close()
		mu.Lock()
		latency[k], fromSend[k] = time.Since(due), time.Since(start)
		mu.Unlock()
	})
	if sent != n {
		t.Fatalf("pace sent %d of %d ops", sent, n)
	}
	for k := 1; k < n; k++ {
		queued := stall - time.Duration(k)*interval // how long op k waited behind the stall
		if latency[k] < queued {
			t.Errorf("op %d: latency %v from its due time, but it queued %v behind the stall", k, latency[k], queued)
		}
		if fromSend[k] > stall/2 {
			t.Errorf("op %d took %v from its send: the stall was not the only cause", k, fromSend[k])
		}
	}
}

// TestClosedLoopSendsEveryOpOnce checks the closed loop's hand-out.
func TestClosedLoopSendsEveryOpOnce(t *testing.T) {
	var mu sync.Mutex
	seen := make(map[int]int)
	next := pace(3, 50, 2, 0, time.Now().Add(time.Minute), func(k int, due time.Time) {
		if !due.IsZero() {
			t.Errorf("closed loop op %d has a due time", k)
		}
		mu.Lock()
		seen[k]++
		mu.Unlock()
	})
	if next != 50 || len(seen) != 47 {
		t.Fatalf("next=%d, %d distinct ops sent; want 50 and 47", next, len(seen))
	}
	for k, c := range seen {
		if c != 1 || k < 3 {
			t.Errorf("op %d sent %d times", k, c)
		}
	}
}
