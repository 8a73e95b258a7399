package des

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := NewSimulator(1)
	var got []int
	s.ScheduleAt(3*time.Millisecond, func() { got = append(got, 3) })
	s.ScheduleAt(1*time.Millisecond, func() { got = append(got, 1) })
	s.ScheduleAt(2*time.Millisecond, func() { got = append(got, 2) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Millisecond {
		t.Fatalf("clock = %v, want 3ms", s.Now())
	}
}

func TestTieBreakBySequence(t *testing.T) {
	s := NewSimulator(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.ScheduleAt(time.Millisecond, func() { got = append(got, i) })
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("insertion order not preserved: %v", got)
		}
	}
}

func TestCancel(t *testing.T) {
	s := NewSimulator(1)
	fired := false
	e := s.ScheduleAt(time.Millisecond, func() { fired = true })
	e.Cancel()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewSimulator(1)
	s.ScheduleAt(time.Second, func() {})
	_ = s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	s.ScheduleAt(time.Millisecond, func() {})
}

func TestNilHandlerPanics(t *testing.T) {
	s := NewSimulator(1)
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	s.ScheduleAt(0, nil)
}

func TestNegativeDelayClamps(t *testing.T) {
	s := NewSimulator(1)
	fired := false
	var tk *Ticker
	tk = s.Every(-time.Second, time.Second, func() { fired = true; tk.Stop() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired || s.Now() != 0 {
		t.Fatalf("negative delay: fired=%v now=%v", fired, s.Now())
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := NewSimulator(1)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Millisecond, 5 * time.Millisecond, 9 * time.Millisecond} {
		d := d
		s.ScheduleAt(d, func() { fired = append(fired, d) })
	}
	if err := s.RunUntil(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %d events before horizon, want 2", len(fired))
	}
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("clock = %v, want horizon 5ms", s.Now())
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 {
		t.Fatalf("remaining event did not fire: %v", fired)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := NewSimulator(1)
	if err := s.RunUntil(time.Second); err != nil {
		t.Fatal(err)
	}
	if s.Now() != time.Second {
		t.Fatalf("idle clock = %v, want 1s", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := NewSimulator(1)
	count := 0
	s.ScheduleAt(time.Millisecond, func() { count++; s.Stop() })
	s.ScheduleAt(2*time.Millisecond, func() { count++ })
	if err := s.Run(); err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if count != 1 {
		t.Fatalf("count = %d, want 1", count)
	}
}

// TestStep steps the calendar one event at a time with RunUntil: each
// horizon fires exactly the events due by then, and running an empty
// calendar fires nothing.
func TestStep(t *testing.T) {
	s := NewSimulator(1)
	count := 0
	s.ScheduleAt(time.Millisecond, func() { count++ })
	s.ScheduleAt(2*time.Millisecond, func() { count++ })
	for step := 1; step <= 2; step++ {
		if err := s.RunUntil(time.Duration(step) * time.Millisecond); err != nil || count != step {
			t.Fatalf("step %d: count=%d err=%v", step, count, err)
		}
	}
	if err := s.Run(); err != nil || count != 2 {
		t.Fatalf("empty calendar: count=%d err=%v", count, err)
	}
}

func TestTicker(t *testing.T) {
	s := NewSimulator(1)
	var times []time.Duration
	tk := s.Every(10*time.Millisecond, 20*time.Millisecond, func() {
		times = append(times, s.Now())
	})
	s.ScheduleAt(100*time.Millisecond, func() { tk.Stop() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10, 30, 50, 70, 90}
	if len(times) != len(want) {
		t.Fatalf("ticks = %v", times)
	}
	for i, w := range want {
		if times[i] != w*time.Millisecond {
			t.Fatalf("tick %d at %v, want %vms", i, times[i], w)
		}
	}
}

func TestSelfSchedulingCascade(t *testing.T) {
	s := NewSimulator(1)
	count := 0
	var step func()
	step = func() {
		count++
		if count < 100 {
			s.ScheduleAt(s.Now()+time.Microsecond, step)
		}
	}
	s.ScheduleAt(0, step)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("cascade count = %d", count)
	}
	if s.Now() != 99*time.Microsecond {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		s := NewSimulator(42)
		r := s.Stream("radio")
		out := make([]float64, 50)
		for i := range out {
			out[i] = r.Float64()
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("stream not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	s := NewSimulator(42)
	a := s.Stream("radio")
	b := s.Stream("core")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams collide %d/100 times", same)
	}
	// Same name twice must give the same sequence.
	c := s.Stream("radio")
	d := s.Stream("radio")
	for i := 0; i < 100; i++ {
		if c.Uint64() != d.Uint64() {
			t.Fatal("same-name streams diverge")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	f := func(_ uint8) bool {
		v := r.Float64()
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRNG(7)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNormalMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := r.Normal(5, 2)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	std := math.Sqrt(sum2/n - mean*mean)
	if math.Abs(mean-5) > 0.05 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(std-2) > 0.05 {
		t.Fatalf("normal std = %v", std)
	}
}

func TestLogNormalQuantiles(t *testing.T) {
	// For LogNormal(mu=ln 6, sigma=1): P(X < 1) = Phi(-ln6) ~ 3.66 %,
	// P(X < 3) = Phi(ln(3/6)) ~ 24.4 %.
	r := NewRNG(17)
	const n = 200000
	below1, below3 := 0, 0
	mu := math.Log(6)
	for i := 0; i < n; i++ {
		v := r.LogNormal(mu, 1)
		if v < 1 {
			below1++
		}
		if v < 3 {
			below3++
		}
	}
	p1 := float64(below1) / n
	p3 := float64(below3) / n
	if p1 < 0.030 || p1 > 0.044 {
		t.Fatalf("P(X<1) = %v, want ~0.0366", p1)
	}
	if p3 < 0.23 || p3 > 0.26 {
		t.Fatalf("P(X<3) = %v, want ~0.244", p3)
	}
}

func TestPoissonMean(t *testing.T) {
	r := NewRNG(29)
	const n = 100000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Poisson(4)
	}
	mean := float64(sum) / n
	if math.Abs(mean-4) > 0.1 {
		t.Fatalf("poisson mean = %v", mean)
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Fatal("poisson of non-positive mean should be 0")
	}
	// Large-mean path must not loop forever and stays near the mean.
	big := 0
	for i := 0; i < 1000; i++ {
		big += r.Poisson(1000)
	}
	if m := float64(big) / 1000; math.Abs(m-1000) > 20 {
		t.Fatalf("large poisson mean = %v", m)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(31)
	f := func(n uint8) bool {
		m := int(n%50) + 1
		p := r.Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestChoiceRespectsWeights(t *testing.T) {
	r := NewRNG(37)
	counts := [3]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Choice([]float64{1, 2, 7})]++
	}
	if p := float64(counts[2]) / n; math.Abs(p-0.7) > 0.02 {
		t.Fatalf("weight-7 arm chosen %v of the time", p)
	}
	if p := float64(counts[0]) / n; math.Abs(p-0.1) > 0.02 {
		t.Fatalf("weight-1 arm chosen %v of the time", p)
	}
}

func TestUniformRange(t *testing.T) {
	r := NewRNG(41)
	for i := 0; i < 10000; i++ {
		v := r.Uniform(3, 9)
		if v < 3 || v >= 9 {
			t.Fatalf("uniform out of range: %v", v)
		}
	}
}
