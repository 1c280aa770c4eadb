package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"ecripse/internal/obsv"
)

// pinCase is one small RunSpec job whose result payload is pinned by hash.
type pinCase struct {
	name string
	spec JobSpec
	sha  string // SHA-256 of the JSON-encoded RunResult
}

// bitPinCases cover every estimator in every failure mode, plus the two
// RTN-capable estimators with RTN on. The hashes were recorded before the
// failure indicator moved behind core.Indicator; a mismatch means a result
// bit changed, which would invalidate journaled and cached payloads.
var bitPinCases = []pinCase{
	{"naive/read", JobSpec{Estimator: EstNaive, Mode: "read", Vdd: 0.5, Seed: 3, N: 1500},
		"bd4213b54897e07bbb473b090d043d6a3848ef5273ac610080949f13c573384a"},
	{"naive/write", JobSpec{Estimator: EstNaive, Mode: "write", Vdd: 0.5, Seed: 3, N: 1500},
		"0094da5ee0ff9c58e258d76b11320d2334d6fc08221e8efc9aa6187a76333eba"},
	{"naive/hold", JobSpec{Estimator: EstNaive, Mode: "hold", Vdd: 0.5, Seed: 3, N: 1500},
		"3483ac7f70feede1bbad877ab815132491ac1035dbed8c39487561ed7e46eb9b"},
	{"sis/read", JobSpec{Estimator: EstSIS, Mode: "read", Vdd: 0.5, Seed: 3, N: 300},
		"f9938174ee2275d2bb0a54f0d840efafc533137e022d9e3bda9e8481443666f5"},
	{"sis/write", JobSpec{Estimator: EstSIS, Mode: "write", Vdd: 0.5, Seed: 3, N: 300},
		"ec2e01637ff1e02a9114797c206fc04bf8f9f0fcfa0c85f9fd9975dbcb6e17c8"},
	{"sis/hold", JobSpec{Estimator: EstSIS, Mode: "hold", Vdd: 0.5, Seed: 3, N: 300},
		"d9ec8e1683b56f5db3bb8036b44510f32e78f428a866c1b255cc6bb544e90635"},
	{"blockade/read", JobSpec{Estimator: EstBlockade, Mode: "read", Vdd: 0.5, Seed: 3, N: 1500},
		"2412e471322fb807024007923afc9c1ff8ea6305119c53549809c193222f2d30"},
	{"blockade/write", JobSpec{Estimator: EstBlockade, Mode: "write", Vdd: 0.5, Seed: 3, N: 1500},
		"249f38040fccbfe8ab4ad23cd533c49be07945130499b5f928012ced2cb57504"},
	{"blockade/hold", JobSpec{Estimator: EstBlockade, Mode: "hold", Vdd: 0.5, Seed: 3, N: 1500},
		"267d2f86f44b8f656dc9f0b0693f0a3cff706e75302cd3ca4ae34256801d0dcb"},
	{"subset/read", JobSpec{Estimator: EstSubset, Mode: "read", Vdd: 0.5, Seed: 3, N: 150},
		"60c996909a21295c6672ec837d639b88445d5c3af41151df42e55a1abc01c55b"},
	{"subset/write", JobSpec{Estimator: EstSubset, Mode: "write", Vdd: 0.5, Seed: 3, N: 150},
		"93d5099ddef5f9053e8340590e72d5b6ba547a2b3f62bcdd5e2525a40db13b42"},
	{"subset/hold", JobSpec{Estimator: EstSubset, Mode: "hold", Vdd: 0.5, Seed: 3, N: 150},
		"b66c95273d8aaf3e5ff285a38e3da88ae20ab8d9f187936f1b4e0c728cdc5e21"},
	{"ecripse/read", JobSpec{Estimator: EstECRIPSE, Mode: "read", Vdd: 0.5, Seed: 3, N: 800},
		"464dd34401be1267187d10d4f976c8fa124d5beecff37cbd2878e748a8cd589a"},
	{"ecripse/write", JobSpec{Estimator: EstECRIPSE, Mode: "write", Vdd: 0.5, Seed: 3, N: 800},
		"e22fb0c3b4283c796da851e1154319199301823ecc4ad69e8067f7889d437ba6"},
	{"ecripse/hold", JobSpec{Estimator: EstECRIPSE, Mode: "hold", Vdd: 0.5, Seed: 3, N: 800},
		"6bc87b1e18f9403f2f1ff8e8de1b8e66a007c32d7a92b512ccf2d7ad0f0a71a7"},
	{"naive/read/rtn", JobSpec{Estimator: EstNaive, Mode: "read", Vdd: 0.5, Seed: 3, N: 1500, RTN: true, Alpha: 0.3},
		"63202f5e5387e88200cdebac3363ff99b047bc97fc63ed04056a5ad73165210e"},
	{"ecripse/read/rtn", JobSpec{Estimator: EstECRIPSE, Mode: "read", Vdd: 0.5, Seed: 3, N: 600, M: 4, RTN: true, Alpha: 0.3},
		"c761ec1b3bf3b9d4bbcfb7562024b2de9e81172fc939ee7c49cf659712dfa287"},
}

// TestRunSpecBitPins pins the full result payload of every estimator and
// failure mode to the bytes recorded before the indicator refactor. Run
// under GOAMD64=v1 and v3 in CI: the bits must not depend on the kernel
// enable path either.
func TestRunSpecBitPins(t *testing.T) {
	for _, tc := range bitPinCases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunSpec(context.Background(), tc.spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != tc.sha {
				t.Errorf("result payload hash = %s, want %s\npayload: %s", got, tc.sha, summarize(res))
			}
		})
	}
}

// summarize renders the headline numbers of a result for a failure message.
func summarize(r *RunResult) string {
	return fmt.Sprintf("p=%v ci95=%v sims=%d cost=%+v", r.Estimate.P, r.Estimate.CI95, r.Estimate.Sims, r.Cost)
}

// TestIndicatorHistCountsEverySimulation checks that the indicator
// histogram sees exactly one observation per transistor-level simulation,
// whichever estimator ran: its count delta must equal the job's cost.total.
func TestIndicatorHistCountsEverySimulation(t *testing.T) {
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"naive", JobSpec{Estimator: EstNaive, Vdd: 0.5, Seed: 3, N: 300}},
		{"naive/rtn", JobSpec{Estimator: EstNaive, Vdd: 0.5, Seed: 3, N: 300, RTN: true, Alpha: 0.3}},
		{"sis", JobSpec{Estimator: EstSIS, Vdd: 0.5, Seed: 3, N: 200}},
		{"blockade", JobSpec{Estimator: EstBlockade, Vdd: 0.5, Seed: 3, N: 600}},
		{"subset", JobSpec{Estimator: EstSubset, Vdd: 0.5, Seed: 3, N: 100}},
		{"ecripse", JobSpec{Estimator: EstECRIPSE, Vdd: 0.5, Seed: 3, N: 500}},
	}
	h := obsv.NewHistogram("indicator_seconds", "test", obsv.ExpBuckets(1e-6, 2, 24))
	ctx := withRunHooks(context.Background(), runHooks{indicatorHist: h})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := h.Count()
			res, err := RunSpec(ctx, tc.spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost.Total == 0 {
				t.Fatal("job ran no simulations")
			}
			if got := h.Count() - before; got != res.Cost.Total {
				t.Fatalf("histogram observed %d simulations, cost.total = %d", got, res.Cost.Total)
			}
		})
	}
}

// TestSpecModeNormalize pins the spec's mode handling: empty means read,
// the three names pass through, anything else is the documented 400 body.
func TestSpecModeNormalize(t *testing.T) {
	for in, want := range map[string]string{"": "read", "read": "read", "write": "write", "hold": "hold"} {
		s := JobSpec{Mode: in}
		if err := s.Normalize(); err != nil || s.Mode != want {
			t.Fatalf("mode %q normalized to %q, %v; want %q", in, s.Mode, err, want)
		}
	}
	s := JobSpec{Mode: "bogus"}
	err := s.Normalize()
	if want := `spec: unknown mode "bogus" (want read, write or hold)`; err == nil || err.Error() != want {
		t.Fatalf("bad mode error = %v, want %q", err, want)
	}
}
