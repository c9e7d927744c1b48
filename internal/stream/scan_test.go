package stream

import (
	"fmt"
	"testing"

	"streambalance/internal/coreset"
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
			scanS, scanErrS := a.scan(len(a.guesses), 1)
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
					scanP, scanErrP := a.scan(len(a.guesses), w)
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
