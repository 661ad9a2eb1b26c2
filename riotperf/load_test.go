package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestOpenLoopCountsAStall runs the generator against a handler that
// stalls every request for a while: requests falling due during the
// stall must queue rather than be dropped, show up in the backlog, and
// be timed from when they were due.
func TestOpenLoopCountsAStall(t *testing.T) {
	const (
		every      = 5 * time.Millisecond
		n          = 120
		stallStart = 150 * time.Millisecond
		stall      = 200 * time.Millisecond
	)
	start := time.Now()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if since := time.Since(start); since >= stallStart && since < stallStart+stall {
			time.Sleep(stallStart + stall - since)
		}
	}))
	defer srv.Close()

	sched := make([]arrival, n)
	for i := range sched {
		sched[i] = arrival{due: time.Duration(i) * every, op: opGet}
	}
	clients := []*http.Client{srv.Client(), srv.Client()}
	send := func(conn int, _ arrival) bool {
		resp, err := clients[conn].Get(srv.URL)
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	start = time.Now()
	st := runOpen(sched, 2, send, nil, 0)

	if st.attempted != n || st.failed != 0 || len(st.lat[opGet]) != n {
		t.Fatalf("attempted %d, failed %d, timed %d; want all %d timed", st.attempted, st.failed, len(st.lat[opGet]), n)
	}
	// Both connections are held by the stall, so the arrivals due
	// during it wait in the queue.
	if wantQueued := int(stall/every) - 2 - 5; st.backlogMax < wantQueued {
		t.Errorf("backlog peaked at %d, want at least %d", st.backlogMax, wantQueued)
	}
	if worst := percentile(st.lat[opGet], 100); worst < ms(stall)*0.8 {
		t.Errorf("worst latency %.1fms; the request due as the stall began waited ~%s", worst, stall)
	}
	if late := percentile(st.late, 100); late < ms(stall)*0.5 {
		t.Errorf("generator lateness peaked at %.1fms, want the queued wait to show", late)
	}
}

func TestOpenScheduleIsSeeded(t *testing.T) {
	a := openSchedule(newRand(7), 500, time.Second, 64, 0.5)
	b := openSchedule(newRand(7), 500, time.Second, 64, 0.5)
	if len(a) != len(b) || len(a) < 400 || len(a) > 600 {
		t.Fatalf("schedules of %d and %d arrivals at 500/s over 1s", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}
