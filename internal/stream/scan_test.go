package stream

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"streambalance/internal/coreset"
	"streambalance/internal/geo"
	"streambalance/internal/workload"
)

// TestAutoScanParallelMatchesSerial: the parallel guess scan must select
// the guess the one-worker scan selects, with the bitwise-same coreset,
// and on a stream where no guess succeeds it must report the same error
// — the lowest guess's failure. Each stream is checked through
// resultWith (the scan capped by the cost bound) and through the
// uncapped scan itself, cold and warm. Pools of 2, 4 and 8 workers run
// regardless of GOMAXPROCS, so `make check` races them.
func TestAutoScanParallelMatchesSerial(t *testing.T) {
	ps, _ := testMixture(91, 1500)
	insertOnly := make([]Op, len(ps))
	for i, p := range ps {
		insertOnly[i] = Op{P: p}
	}
	cases := []struct {
		name       string
		ops        []Op
		cellSp     int
		pointSp    int
		winnerZero bool // the smallest guess must win
		noWinner   bool // every guess must FAIL
	}{
		{name: "tiny", ops: insertOnly[:12], cellSp: 512, pointSp: 2048, winnerZero: true},
		{name: "insert-only", ops: insertOnly, cellSp: 512, pointSp: 2048},
		{name: "churn", ops: mixedOps(92, 1500), cellSp: 512, pointSp: 2048},
		{name: "no-winner", ops: mixedOps(93, 1500), cellSp: 8, pointSp: 16, noWinner: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewAuto(Config{
				Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: 94},
				CellSparsity: tc.cellSp, PointSparsity: tc.pointSp,
			}, 4)
			if err != nil {
				t.Fatal(err)
			}
			a.Apply(tc.ops)

			csS, errS := a.resultWith(1)
			scanS, _, scanErrS := a.scan(len(a.guesses), 1)
			switch {
			case tc.noWinner:
				if errS == nil || scanErrS == nil {
					t.Fatalf("want every guess to fail, got results %v / %v", errS, scanErrS)
				}
				_, err0 := a.streams[0].resultWith(1)
				if err0 == nil {
					t.Fatal("lowest guess succeeded on the no-winner stream")
				}
				// The largest guesses FAIL on a different sketch (ĥ, not h),
				// so only the lowest guess's error passes both checks.
				if want := fmt.Sprintf("%v (first failure: %v)", ErrNoGuessSucceeded, err0); errS.Error() != want {
					t.Fatalf("serial error %q, want the lowest guess's failure %q", errS, want)
				}
				if _, errTop := a.streams[len(a.streams)-1].resultWith(1); errTop == nil || errTop.Error() == err0.Error() {
					t.Fatalf("top guess error %v does not tell it from the lowest guess's", errTop)
				}
				if scanErrS.Error() != err0.Error() {
					t.Fatalf("serial scan error %q, want the lowest guess's failure %q", scanErrS, err0)
				}
			case errS != nil || scanErrS != nil || scanS == nil:
				t.Fatalf("serial results: %v / %v", errS, scanErrS)
			case tc.winnerZero && scanS.O != a.guesses[0]:
				t.Fatalf("serial scan selected o=%v, want the smallest guess %v", scanS.O, a.guesses[0])
			}

			for _, w := range []int{2, 4, 8} {
				for _, temp := range []string{"cold", "warm"} {
					if temp == "cold" {
						a.DropDecodeCache()
					}
					label := fmt.Sprintf("%s %d workers", temp, w)
					csP, errP := a.resultWith(w)
					sameOutcome(t, csP, errP, csS, errS, label+" resultWith")
					if temp == "cold" {
						a.DropDecodeCache()
					}
					scanP, _, scanErrP := a.scan(len(a.guesses), w)
					sameOutcome(t, scanP, scanErrP, scanS, scanErrS, label+" scan")
				}
			}
		})
	}
}

// sameOutcome asserts two extraction outcomes agree: the same error
// text, or bitwise-equal coresets.
func sameOutcome(t *testing.T, got *coreset.Coreset, gotErr error, want *coreset.Coreset, wantErr error, label string) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, want %v", label, gotErr, wantErr)
	}
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: coreset presence %v, want %v", label, got != nil, want != nil)
	}
	if got != nil {
		equalExtraction(t, got, want, label)
	}
}

// fullScan is the guess scan without the FAIL certificate — the oracle
// for Auto.scan: workers claim every guess in ascending order, none above
// the smallest weight-sane success found so far, and the result is that
// success or the error of the lowest guess that FAILed.
func (a *Auto) fullScan(n, workers int) (*coreset.Coreset, error) {
	type outcome struct {
		cs  *coreset.Coreset
		err error
	}
	out := make([]outcome, n)
	var next, best atomic.Int64
	best.Store(int64(n))
	run := func() {
		arena := getArena()
		defer putArena(arena)
		for {
			i := next.Add(1) - 1
			if i >= best.Load() {
				return
			}
			cs, err := a.attempt(int(i), arena, nil)
			out[i] = outcome{cs, err}
			if cs != nil {
				for b := best.Load(); i < b && !best.CompareAndSwap(b, i); b = best.Load() {
				}
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < max(1, min(workers, n)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
	if b := best.Load(); b < int64(n) {
		return out[b].cs, nil
	}
	for _, o := range out {
		if o.err != nil {
			return nil, o.err
		}
	}
	return nil, nil
}

// scanFixture is a guess ensemble fed a churn (delPct > 0) or
// insert-only stream of n clustered points with a fifth of uniform junk,
// at one of four sketch sizings, from tight (every small guess FAILs its
// heavy marking on a shared sketch) to roomy.
func scanFixture(t testing.TB, seed int64, n, delPct, sizing int) *Auto {
	sizes := [][2]int{{8, 16}, {32, 64}, {128, 512}, {512, 2048}}[sizing%4]
	a, err := NewAuto(Config{
		Dim: 2, Delta: testDelta, Params: coreset.Params{K: 3, Seed: seed},
		CellSparsity: sizes[0], PointSparsity: sizes[1],
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	ps, _ := testMixture(seed, n)
	rng := rand.New(rand.NewSource(seed ^ 0x5ca))
	ps = append(ps, workload.UniformBox(rng, n/5, 2, testDelta)...)
	var ops []Op
	var live []geo.Point
	for _, p := range ps {
		ops = append(ops, Op{P: p})
		live = append(live, p)
		if len(live) > 0 && rng.Intn(100) < delPct {
			j := rng.Intn(len(live))
			ops = append(ops, Op{P: live[j], Delete: true})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
	}
	a.Apply(ops)
	return a
}

// FuzzScanMatchesFullScan: the certified scan must select the guess, the
// coreset points, weights and levels, or the error text of the full
// ascending scan, on churn and insert-only streams, under every guess
// cap, at 1, 2 and 4 workers, cold and warm; the one-worker scan's
// certified run must be exact (checkCertifiedRun). Run for 15 s by
// `make check`.
func FuzzScanMatchesFullScan(f *testing.F) {
	f.Add(int64(1), uint16(300), uint8(30), uint8(0), uint8(20))
	f.Add(int64(2), uint16(600), uint8(0), uint8(1), uint8(19))
	f.Add(int64(3), uint16(900), uint8(45), uint8(2), uint8(9))
	f.Add(int64(4), uint16(120), uint8(10), uint8(3), uint8(4))
	f.Add(int64(5), uint16(1200), uint8(20), uint8(1), uint8(30))
	f.Add(int64(6), uint16(800), uint8(0), uint8(0), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, delPct, sizing, capRaw uint8) {
		a := scanFixture(t, seed, int(nRaw)%1500+1, int(delPct)%60, int(sizing))
		n := int(capRaw)%len(a.guesses) + 1
		for _, w := range []int{1, 2, 4} {
			for _, temp := range []string{"cold", "warm"} {
				label := fmt.Sprintf("cap %d, %d workers, %s", n, w, temp)
				if temp == "cold" {
					a.DropDecodeCache()
				}
				want, wantErr := a.fullScan(n, w)
				if temp == "cold" {
					a.DropDecodeCache()
				}
				got, skipped, gotErr := a.scan(n, w)
				sameOutcome(t, got, gotErr, want, wantErr, label)
				if w == 1 {
					checkCertifiedRun(t, a, n, skipped)
				}
			}
		}
	})
}

// checkCertifiedRun asserts that a one-worker scan over the first n
// guesses that skipped `skipped` of them certified exactly the right
// run: guesses 0..skipped (the smallest attempted, the rest skipped),
// each extracted on its own, FAIL their heavy marking on the same shared
// sketch with the smallest guess's error text, and guess skipped+1 does
// not FAIL on that sketch.
func checkCertifiedRun(t *testing.T, a *Auto, n, skipped int) {
	t.Helper()
	if skipped == 0 {
		return
	}
	_, err0 := a.streams[0].resultWith(1)
	level, ok := a.sharedHeavyFail(0, err0)
	if !ok {
		t.Fatalf("%d guesses skipped, but the smallest guess's error %v certifies nothing", skipped, err0)
	}
	for i := 1; i <= skipped; i++ {
		_, err := a.streams[i].resultWith(1)
		if l, ok := a.sharedHeavyFail(i, err); !ok || l != level || err.Error() != err0.Error() {
			t.Fatalf("certified guess %d: error %v, want %v on the shared sketch", i, err, err0)
		}
	}
	if skipped+1 < n {
		_, err := a.streams[skipped+1].resultWith(1)
		if l, ok := a.sharedHeavyFail(skipped+1, err); ok && l == level {
			t.Fatalf("guess %d above the certified run FAILs on the shared sketch: %v", skipped+1, err)
		}
	}
}

// TestScanCertifiesSharedHeavyFails: on a stream whose small guesses FAIL
// their heavy marking on a shared rate-1 sketch, the one-worker scan
// attempts the smallest guess, skips the rest of the certified run, and
// selects what the full scan selects; the run is exact
// (checkCertifiedRun).
func TestScanCertifiesSharedHeavyFails(t *testing.T) {
	for _, tc := range []struct {
		name   string
		delPct int
	}{{"churn", 30}, {"insert-only", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			a := scanFixture(t, 7, 900, tc.delPct, 1)
			n := len(a.guesses)
			want, wantErr := a.fullScan(n, 1)
			got, skipped, gotErr := a.scan(n, 1)
			sameOutcome(t, got, gotErr, want, wantErr, "one worker")
			if skipped == 0 {
				t.Fatal("no guess was certified")
			}
			checkCertifiedRun(t, a, n, skipped)
		})
	}
}

// TestAttemptAbandonsOnlyAssembly: an attempt whose abandon check says
// so after a successful plan step returns neither coreset nor error and
// decodes no ĥ sketch, and the same guess unabandoned still succeeds; an
// attempt whose plan step FAILs reports its FAIL without asking.
func TestAttemptAbandonsOnlyAssembly(t *testing.T) {
	a := scanFixture(t, 7, 900, 30, 2)
	want, _, err := a.scan(len(a.guesses), 1)
	if err != nil || want == nil {
		t.Fatalf("no winner: %v", err)
	}
	win := 0
	for a.guesses[win] != want.O {
		win++
	}
	arena := getArena()
	defer putArena(arena)
	asked := 0
	always := func() bool { asked++; return true }

	a.DropDecodeCache()
	cs, err := a.attempt(win, arena, always)
	if cs != nil || err != nil || asked != 1 {
		t.Fatalf("abandoned attempt: coreset %v, error %v, asked %d times", cs != nil, err, asked)
	}
	for i, u := range a.streams[win].hat {
		if u.st.CacheFresh() {
			t.Fatalf("abandoned attempt decoded ĥ level %d", i)
		}
	}
	got, err := a.attempt(win, arena, func() bool { return false })
	if err != nil || got == nil {
		t.Fatalf("unabandoned attempt: %v", err)
	}
	equalExtraction(t, got, want, "unabandoned attempt")

	_, err0 := a.streams[0].resultWith(1)
	if err0 == nil {
		t.Fatal("the smallest guess does not FAIL on this fixture")
	}
	asked = 0
	if _, err := a.attempt(0, arena, always); err == nil || err.Error() != err0.Error() || asked != 0 {
		t.Fatalf("FAILing attempt: error %v, want %v, asked %d times", err, err0, asked)
	}
}
