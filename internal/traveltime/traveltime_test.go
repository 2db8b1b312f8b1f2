package traveltime

import (
	"bytes"
	"math"
	"testing"
	"time"

	"wilocator/internal/roadnet"
)

func at(hour, min int) time.Time {
	return time.Date(2016, 3, 7, hour, min, 0, 0, time.UTC)
}

func rec(seg roadnet.SegmentID, route string, enter time.Time, secs float64) Record {
	return Record{Seg: seg, RouteID: route, Enter: enter, Exit: enter.Add(time.Duration(secs * float64(time.Second)))}
}

func TestSlotPlanValidation(t *testing.T) {
	if _, err := NewSlotPlan([]int{0}); err == nil {
		t.Error("boundary 0 accepted")
	}
	if _, err := NewSlotPlan([]int{24}); err == nil {
		t.Error("boundary 24 accepted")
	}
	if _, err := NewSlotPlan([]int{8, 8}); err == nil {
		t.Error("duplicate boundary accepted")
	}
	p, err := NewSlotPlan(nil)
	if err != nil || p.NumSlots() != 1 {
		t.Errorf("empty plan: %v slots, err %v", p.NumSlots(), err)
	}
}

func TestPaperPlanSlots(t *testing.T) {
	p := PaperPlan()
	if p.NumSlots() != 5 {
		t.Fatalf("paper plan has %d slots", p.NumSlots())
	}
	tests := []struct {
		h, want int
	}{
		{0, 0}, {7, 0}, {8, 1}, {9, 1}, {10, 2}, {17, 2}, {18, 3}, {19, 4}, {23, 4},
	}
	for _, tt := range tests {
		if got := p.SlotOf(at(tt.h, 30)); got != tt.want {
			t.Errorf("SlotOf(%02dh) = %d, want %d", tt.h, got, tt.want)
		}
	}
	if p.Label(1) != "08-10h" || p.Label(0) != "00-08h" || p.Label(4) != "19-24h" {
		t.Errorf("labels: %v %v %v", p.Label(0), p.Label(1), p.Label(4))
	}
	if p.String() == "" {
		t.Error("empty String()")
	}
}

func TestHourlyPlan(t *testing.T) {
	p := HourlyPlan()
	if p.NumSlots() != 24 {
		t.Fatalf("hourly plan has %d slots", p.NumSlots())
	}
	for h := 0; h < 24; h++ {
		if got := p.SlotOf(at(h, 15)); got != h {
			t.Errorf("SlotOf(%02dh) = %d", h, got)
		}
	}
}

func TestStoreAddValidation(t *testing.T) {
	s := NewStore(PaperPlan())
	if err := s.Add(rec(1, "9", at(9, 0), 0)); err == nil {
		t.Error("zero duration accepted")
	}
	if err := s.Add(Record{Seg: 1, Enter: at(9, 0), Exit: at(9, 1)}); err == nil {
		t.Error("missing route accepted")
	}
	if err := s.Add(rec(1, "9", at(9, 0), 30)); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	if s.NumRecords() != 1 {
		t.Errorf("NumRecords = %d", s.NumRecords())
	}
}

func TestHistoricalMeanPerSlot(t *testing.T) {
	s := NewStore(PaperPlan())
	// Rush-slot records for route 9 on segment 5.
	for i, secs := range []float64{50, 60, 70} {
		if err := s.Add(rec(5, "9", at(8, i*10), secs)); err != nil {
			t.Fatal(err)
		}
	}
	// Midday records — different slot.
	if err := s.Add(rec(5, "9", at(13, 0), 30)); err != nil {
		t.Fatal(err)
	}
	rushSlot := PaperPlan().SlotOf(at(8, 0))
	m, n := s.HistoricalMean(5, "9", rushSlot)
	if n != 3 || math.Abs(m-60) > 1e-9 {
		t.Errorf("rush mean = %v (n=%d), want 60 (3)", m, n)
	}
	middaySlot := PaperPlan().SlotOf(at(13, 0))
	m, n = s.HistoricalMean(5, "9", middaySlot)
	if n != 1 || m != 30 {
		t.Errorf("midday mean = %v (n=%d)", m, n)
	}
	if _, n := s.HistoricalMean(5, "14", rushSlot); n != 0 {
		t.Errorf("unseen route has %d samples", n)
	}
	if m, n := s.SegmentMean(5); n != 4 || math.Abs(m-52.5) > 1e-9 {
		t.Errorf("segment mean = %v (n=%d), want 52.5 (4)", m, n)
	}
	if _, n := s.SegmentMean(99); n != 0 {
		t.Error("unknown segment has samples")
	}
}

func TestRecentWindowAndLimit(t *testing.T) {
	s := NewStore(PaperPlan())
	for i := 0; i < 10; i++ {
		if err := s.Add(rec(7, "14", at(9, i), 40+float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// All traversals exit 40+i seconds after entering at minute i.
	got := s.Recent(7, at(9, 5), 0)
	if len(got) != 5 {
		t.Fatalf("Recent since 9:05 = %d traversals, want 5", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Exit.Before(got[i-1].Exit) {
			t.Fatal("Recent out of order")
		}
	}
	limited := s.Recent(7, at(9, 0), 3)
	if len(limited) != 3 {
		t.Fatalf("limited Recent = %d", len(limited))
	}
	// The limit keeps the most recent entries.
	if limited[2].Seconds != 49 {
		t.Errorf("last limited traversal = %v", limited[2])
	}
	if got := s.Recent(99, at(0, 0), 0); len(got) != 0 {
		t.Errorf("unknown segment Recent = %v", got)
	}
}

func TestRecentRingEviction(t *testing.T) {
	s := NewStore(PaperPlan())
	for i := 0; i < maxRecentPerSegment+10; i++ {
		if err := s.Add(rec(3, "9", at(6, 0).Add(time.Duration(i)*time.Minute), 30)); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Recent(3, time.Time{}, 0)
	if len(got) != maxRecentPerSegment {
		t.Errorf("ring holds %d, want %d", len(got), maxRecentPerSegment)
	}
}

func TestChangedSinceStampsSegments(t *testing.T) {
	s := NewStore(PaperPlan())
	if err := s.Add(rec(1, "r", at(9, 0), 60)); err != nil {
		t.Fatal(err)
	}
	g := s.Generation()
	if s.ChangedSince(g, []roadnet.SegmentID{1, 2}) {
		t.Error("nothing changed since the current generation")
	}
	if !s.ChangedSince(g-1, []roadnet.SegmentID{1}) {
		t.Error("the record on segment 1 is not seen from the generation before it")
	}
	if err := s.Add(rec(2, "r", at(9, 5), 60)); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(rec(2, "r", at(9, 0), -5)); err == nil {
		t.Fatal("a rejected record was accepted")
	}
	if s.ChangedSince(g, []roadnet.SegmentID{1, 3}) {
		t.Error("a record on segment 2 changed segments 1 and 3")
	}
	if !s.ChangedSince(g, []roadnet.SegmentID{3, 2}) {
		t.Error("a record on segment 2 is not seen")
	}
	if s.Generation() != g+1 {
		t.Errorf("generation %d after one accepted record, want %d", s.Generation(), g+1)
	}

	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g = s.Generation()
	if _, err := s.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if !s.ChangedSince(g, []roadnet.SegmentID{3}) {
		t.Error("ReadFrom did not change a segment it carries no record for")
	}
	if g2 := s.Generation(); s.ChangedSince(g2, []roadnet.SegmentID{1, 2, 3}) {
		t.Error("changed since the generation ReadFrom left")
	}
}

func TestResidualStats(t *testing.T) {
	s := NewStore(PaperPlan())
	slot := PaperPlan().SlotOf(at(9, 0))
	// Route 9: durations 50, 70 (mean 60, residuals +10, -10).
	if err := s.Add(rec(2, "9", at(8, 0), 50)); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(rec(2, "9", at(8, 30), 70)); err != nil {
		t.Fatal(err)
	}
	// Route 14: durations 90, 110 (mean 100, residuals +10, -10).
	if err := s.Add(rec(2, "14", at(9, 0), 90)); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(rec(2, "14", at(9, 30), 110)); err != nil {
		t.Fatal(err)
	}
	mean, std, n := s.ResidualStats(2, slot)
	if n != 4 {
		t.Fatalf("n = %d", n)
	}
	if math.Abs(mean) > 1e-9 {
		t.Errorf("residual mean = %v, want 0", mean)
	}
	if math.Abs(std-10) > 1e-9 {
		t.Errorf("residual std = %v, want 10", std)
	}
	if _, _, n := s.ResidualStats(2, slot+1); n != 0 {
		t.Error("empty slot has residuals")
	}
}

func TestSeasonalIndexDetectsRush(t *testing.T) {
	s := NewStore(HourlyPlan())
	day := time.Date(2016, 3, 7, 0, 0, 0, 0, time.UTC)
	// Simulate 10 days: 60 s off-peak, 120 s during 8-9h and 18-19h.
	for d := 0; d < 10; d++ {
		base := day.AddDate(0, 0, d)
		for h := 6; h < 23; h++ {
			secs := 60.0
			if h == 8 || h == 9 || h == 18 {
				secs = 130
			}
			if err := s.Add(rec(4, "9", base.Add(time.Duration(h)*time.Hour), secs)); err != nil {
				t.Fatal(err)
			}
		}
	}
	si := s.SeasonalIndex(4)
	rush := RushHours(si, 0)
	want := map[int]bool{8: true, 9: true, 18: true}
	if len(rush) != 3 {
		t.Fatalf("rush hours = %v, want 8,9,18", rush)
	}
	for _, h := range rush {
		if !want[h] {
			t.Errorf("hour %d flagged as rush", h)
		}
	}
	// Hours with no data have index 0.
	if si[3] != 0 {
		t.Errorf("si[3] = %v, want 0 (no data)", si[3])
	}
	// Slot grouping reconstructs boundaries at the index jumps.
	plan, err := GroupSlots(si, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumSlots() < 4 {
		t.Errorf("grouped plan %v has too few slots", plan)
	}
	if s2 := s.SeasonalIndex(99); len(s2) != 24 || s2[8] != 0 {
		t.Error("unknown segment seasonal index wrong")
	}
}

func TestGroupSlotsValidation(t *testing.T) {
	if _, err := GroupSlots(make([]float64, 10), 0); err == nil {
		t.Error("short index accepted")
	}
}

func TestStoreConcurrency(t *testing.T) {
	s := NewStore(PaperPlan())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			_ = s.Add(rec(1, "9", at(8, 0).Add(time.Duration(i)*time.Second), 30))
		}
	}()
	for i := 0; i < 1000; i++ {
		s.HistoricalMean(1, "9", 1)
		s.Recent(1, at(8, 0), 4)
		s.SeasonalIndex(1)
		s.ResidualStats(1, 1)
	}
	<-done
	if s.NumRecords() != 1000 {
		t.Errorf("NumRecords = %d", s.NumRecords())
	}
}
