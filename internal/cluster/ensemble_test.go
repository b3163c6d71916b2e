package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"csoutlier/internal/frame"
	"csoutlier/internal/outlier"
	"csoutlier/internal/sensing"
)

// The full distributed pipeline must work identically over every
// measurement ensemble, including across the TCP transport (the Spec
// travels on the wire).
func TestDetectAcrossEnsemblesOverTCP(t *testing.T) {
	const n, s, k = 256, 6, 4
	const mode = 1800.0
	nodes, global, _ := makeCluster(t, n, s, 3, mode, 31)
	remotes := make([]NodeAPI, len(nodes))
	for i, nd := range nodes {
		addr := startServer(t, nd)
		rn, err := dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { rn.Close() })
		remotes[i] = rn
	}
	truth := outlier.TopK(global, mode, k)
	for _, spec := range []sensing.Spec{
		{Params: sensing.Params{M: 110, N: n, Seed: 32}, Kind: sensing.KindGaussian},
		{Params: sensing.Params{M: 160, N: n, Seed: 33}, Kind: sensing.KindCountSketch},
	} {
		got, gotMode, stats := detect(t, remotes, spec, k)
		if stats.Bytes != int64(3*spec.M*8) {
			t.Fatalf("%v: bytes %d", spec.Kind, stats.Bytes)
		}
		if math.Abs(gotMode-mode) > 0.02*mode {
			t.Fatalf("%v: mode %v", spec.Kind, gotMode)
		}
		if ek := outlier.ErrorOnKey(truth, got); ek > 0.26 {
			t.Fatalf("%v: EK %v", spec.Kind, ek)
		}
	}
}

func TestParseKind(t *testing.T) {
	for name, want := range map[string]sensing.Kind{
		"gaussian":    sensing.KindGaussian,
		"":            sensing.KindGaussian,
		"countsketch": sensing.KindCountSketch,
	} {
		got, err := sensing.ParseKind(name)
		if err != nil || got != want {
			t.Fatalf("ParseKind(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := sensing.ParseKind("fourier"); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if sensing.KindCountSketch.String() != "countsketch" || sensing.Kind(9).String() == "" {
		t.Fatal("Kind.String broken")
	}
}

func TestSpecNewDispatch(t *testing.T) {
	p := sensing.Params{M: 8, N: 32, Seed: 1}
	for _, tc := range []struct {
		spec sensing.Spec
		want string
	}{
		{sensing.GaussianSpec(p), "*sensing.Dense"},
		{sensing.Spec{Params: sensing.Params{M: 8, N: 1 << 24, Seed: 1}, Kind: sensing.KindGaussian}, "*sensing.Seeded"},
		{sensing.Spec{Params: p, Kind: sensing.KindCountSketch, D: 2}, "*sensing.CountSketch"},
	} {
		m, err := sensing.New(tc.spec, 0)
		if err != nil {
			t.Fatalf("%+v: %v", tc.spec, err)
		}
		if got := typeName(m); got != tc.want {
			t.Fatalf("New(%v) = %s, want %s", tc.spec.Kind, got, tc.want)
		}
	}
	if _, err := sensing.New(sensing.Spec{Params: p, Kind: sensing.Kind(99)}, 0); err == nil {
		t.Fatal("unknown kind accepted by New")
	}
}

func typeName(v interface{}) string {
	switch v.(type) {
	case *sensing.Dense:
		return "*sensing.Dense"
	case *sensing.Seeded:
		return "*sensing.Seeded"
	case *sensing.CountSketch:
		return "*sensing.CountSketch"
	default:
		return "?"
	}
}

// TestRetiredKindRefused: Kind numbers 1 and 2 are unknown kinds. A
// request carrying one on the wire is a well-formed frame the server
// answers with the unknown-kind error — it never builds another ensemble
// in its place — and the client refuses the same spec before the round
// trip.
func TestRetiredKindRefused(t *testing.T) {
	nodes, _, _ := makeCluster(t, 64, 2, 1, 100, 5)
	for _, kind := range []sensing.Kind{1, 2} {
		want := fmt.Sprintf("sensing: unknown ensemble kind %d", kind)
		spec := sensing.Spec{Params: sensing.Params{M: 16, N: 64, Seed: 1}, Kind: kind}

		var reply bytes.Buffer
		ServeStream(bytes.NewReader(appendRequest(nil, &request{Kind: reqSketch, Spec: spec})), &reply, nodes[0])
		limits := [kindReply + 1]int{kindReply: 1 + maxReplyText}
		fr := frame.Reader{R: &reply, Limits: limits[:]}
		_, body, err := fr.Next()
		var resp response
		if err == nil {
			err = parseReply(reqSketch, body, &resp)
		}
		if err != nil || resp.Err != want || resp.Vec != nil {
			t.Errorf("server, wire kind %d: reply %+v, %v; want Err %q", kind, resp, err, want)
		}

		if _, err := nodes[0].Sketch(context.Background(), spec); err == nil || err.Error() != want {
			t.Errorf("LocalNode.Sketch, kind %d: %v, want %q", kind, err, want)
		}
		if _, err := SketchRequestFrame(spec); err == nil || err.Error() != want {
			t.Errorf("SketchRequestFrame, kind %d: %v, want %q", kind, err, want)
		}
	}
}
