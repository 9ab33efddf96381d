package main

import "testing"

func streamHash(t *testing.T, w *workload, seed int64) string {
	t.Helper()
	e, err := buildEnv(seed)
	if err != nil {
		t.Fatal(err)
	}
	h, err := newStream(w, seed, e.gen, e.det).hash(2)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestStreamIsSeeded(t *testing.T) {
	for _, w := range workloads {
		a, b := streamHash(t, w, 7), streamHash(t, w, 7)
		if a != b {
			t.Errorf("%s: seed 7 gave two streams: %s, %s", w.name, a, b)
		}
		if c := streamHash(t, w, 8); c == a {
			t.Errorf("%s: seeds 7 and 8 gave the same stream", w.name)
		}
	}
}

func TestStreamShape(t *testing.T) {
	for _, w := range workloads {
		e, err := buildEnv(3)
		if err != nil {
			t.Fatal(err)
		}
		d, err := newStream(w, 3, e.gen, e.det).day(0)
		if err != nil {
			t.Fatal(err)
		}
		var access, alerts, status int
		for _, o := range d.ops {
			switch o.kind {
			case opAccess:
				access++
				if o.alert {
					alerts++
				}
			case opStatus:
				status++
			}
		}
		if access < 800 || access > 1100 {
			t.Errorf("%s: %d accesses in a day, want about 960", w.name, access)
		}
		if r := float64(alerts) / float64(access); r < 0.4 || r > 0.6 {
			t.Errorf("%s: alert share %.2f, want about half", w.name, r)
		}
		share := float64(status) / float64(access+status)
		if share < w.statusShare-0.03 || share > w.statusShare+0.03 {
			t.Errorf("%s: status share %.3f, want %.2f", w.name, share, w.statusShare)
		}
		if w.tenants > 0 && len(d.touched) < 2 {
			t.Errorf("%s: a day touches %d tenants", w.name, len(d.touched))
		}
	}
}

func TestZipfCDFFollowsOneOverRank(t *testing.T) {
	cdf := zipfCDF(1000)
	if got := cdf[len(cdf)-1]; got < 1-1e-12 || got > 1+1e-12 {
		t.Fatalf("cdf ends at %v, want 1", got)
	}
	// Rank 0 draws twice the share of rank 1 and ten times that of rank 9.
	p0, p1, p9 := cdf[0], cdf[1]-cdf[0], cdf[9]-cdf[8]
	if r := p0 / p1; r < 2-1e-9 || r > 2+1e-9 {
		t.Errorf("rank 0 / rank 1 share = %v, want 2", r)
	}
	if r := p0 / p9; r < 10-1e-9 || r > 10+1e-9 {
		t.Errorf("rank 0 / rank 9 share = %v, want 10", r)
	}
}

func TestStreamKeepsOnlyHashedAndLatestDays(t *testing.T) {
	e, err := buildEnv(3)
	if err != nil {
		t.Fatal(err)
	}
	s := newStream(workloads[0], 3, e.gen, e.det)
	first, err := s.day(hashDays + 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.day(hashDays + 2); err != nil {
		t.Fatal(err)
	}
	if len(s.hashed) != 0 || s.last.index != hashDays+2 {
		t.Fatalf("stream kept %d hashed days and day %d", len(s.hashed), s.last.index)
	}
	again, err := s.day(hashDays + 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.ops) != len(first.ops) || again.ops[len(again.ops)-1] != first.ops[len(first.ops)-1] {
		t.Error("a regenerated day differs from its first generation")
	}
}
