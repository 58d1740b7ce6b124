package fault

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"syscall"
	"testing"
)

func TestParseSpecRoundTrip(t *testing.T) {
	const in = "seed=42;io:err:0.05;io.trace:latency:0.1:2ms;http:drop:0.01"
	sp, err := ParseSpec(in)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Seed != 42 || len(sp.Rules) != 3 {
		t.Fatalf("parsed %+v, want seed 42 and 3 rules", sp)
	}
	if sp.Rules[1].Kind != KindLatency || sp.Rules[1].Delay.Milliseconds() != 2 {
		t.Fatalf("latency rule = %+v", sp.Rules[1])
	}
	// String renders back in the grammar; re-parsing it must yield the
	// same spec.
	re, err := ParseSpec(sp.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", sp.String(), err)
	}
	if re.Seed != sp.Seed || len(re.Rules) != len(sp.Rules) {
		t.Fatalf("round trip: %q -> %q", in, re.String())
	}
	for i := range sp.Rules {
		if re.Rules[i] != sp.Rules[i] {
			t.Errorf("rule %d: %+v != %+v", i, re.Rules[i], sp.Rules[i])
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"seed=x",                 // unparsable seed
		"io:err",                 // too few fields
		"io:err:0.1:2ms:extra",   // too many fields
		"io:frobnicate:0.5",      // unknown kind
		"io:err:1.5",             // probability out of range
		"io:err:nope",            // unparsable probability
		"io:err:NaN",             // NaN probability: never fires
		"io:latency:nan:2ms",     // NaN probability on a latency clause
		":err:0.5",               // empty site: matches no operation
		"io:err:0.1:5ms",         // delay on a non-latency clause
		"io:latency:0.1",         // latency without a delay
		"io:latency:0.1:bananas", // unparsable delay
		"io:latency:0.1:-5ms",    // non-positive delay
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted, want error", bad)
		}
	}
	// Empty and separators-only specs are valid no-rule specs, and New
	// collapses them to a nil (disabled) injector.
	for _, ok := range []string{"", " ; , "} {
		sp, err := ParseSpec(ok)
		if err != nil || len(sp.Rules) != 0 {
			t.Errorf("ParseSpec(%q) = %+v, %v; want empty spec", ok, sp, err)
		}
		if New(sp) != nil {
			t.Errorf("New over empty spec %q not nil", ok)
		}
	}
}

// FuzzFaultSpec feeds arbitrary text to ParseSpec: it must never panic,
// and every accepted spec's String must re-parse to an equal Spec with
// the same String.
func FuzzFaultSpec(f *testing.F) {
	for _, s := range []string{
		"", "seed=42;io:err:0.05;io.trace:latency:0.1:2ms;http:drop:0.01",
		"*:tornwrite:1, io.result.read:shortread:0", "io:err:NaN", ":err:0.5",
		"io:latency:1e-3:1h2m3.5s", "seed=18446744073709551615;http:drop:0x1p-4",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		sp, err := ParseSpec(in)
		if err != nil {
			return
		}
		out := sp.String()
		re, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its String %q does not re-parse: %v", in, out, err)
		}
		if !reflect.DeepEqual(re, sp) {
			t.Fatalf("round trip of %q through %q: %+v != %+v", in, out, *re, *sp)
		}
		if again := re.String(); again != out {
			t.Fatalf("String of %q is unstable: %q then %q", in, out, again)
		}
	})
}

func TestRuleSiteHierarchy(t *testing.T) {
	cases := []struct {
		rule, site string
		want       bool
	}{
		{"*", SiteResultRead, true},
		{"io", SiteTraceWrite, true},
		{"io.trace", SiteTraceRead, true},
		{"io.trace", SiteResultRead, false},
		{SiteResultWrite, SiteResultWrite, true},
		{"io.result", SiteHTTP, false},
		{"http", SiteHTTP, true},
		{"htt", SiteHTTP, false}, // prefix matching is per dot segment
	}
	for _, c := range cases {
		if got := (Rule{Site: c.rule}).matches(c.site); got != c.want {
			t.Errorf("rule %q matches %q = %v, want %v", c.rule, c.site, got, c.want)
		}
	}
}

// TestInjectorDeterminism: two injectors over the same spec draw the same
// fault sequence for the same operation sequence — the property that makes a
// chaos run reproducible from its seed.
func TestInjectorDeterminism(t *testing.T) {
	const spec = "seed=99;io:err:0.3;io:latency:0.2:1ms"
	draw := func() []Kind {
		in, err := NewFromString(spec)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Kind, 500)
		for i := range out {
			out[i], _ = in.roll(SiteResultRead, KindLatency, KindErr)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
	// And a different seed must not reproduce the same sequence.
	in, err := NewFromString("seed=100;io:err:0.3;io:latency:0.2:1ms")
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a {
		if k, _ := in.roll(SiteResultRead, KindLatency, KindErr); k != a[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 99 and 100 drew identical 500-fault sequences")
	}
}

// TestNilInjectorOff: the disabled layer is inert — nil injectors never
// fire, count nothing, and the FS zero value is an os passthrough.
func TestNilInjectorOff(t *testing.T) {
	var in *Injector
	if k, d := in.roll(SiteResultRead, KindErr); k != 0 || d != 0 {
		t.Errorf("nil injector rolled (%v, %v)", k, d)
	}
	if in.Counts() != nil || in.Total() != 0 || in.Describe() != "off" {
		t.Errorf("nil injector not inert: %v %d %q", in.Counts(), in.Total(), in.Describe())
	}
	inj, err := NewFromString("")
	if err != nil || inj != nil {
		t.Fatalf("NewFromString(\"\") = %v, %v; want nil, nil", inj, err)
	}

	var fs FS
	p := filepath.Join(t.TempDir(), "f")
	if err := fs.WriteFileAtomic(SiteResultWrite, p, func(w io.Writer) error {
		_, err := w.Write([]byte("hello"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	b, err := fs.ReadFile(SiteResultRead, p)
	if err != nil || string(b) != "hello" {
		t.Fatalf("zero-FS read back %q, %v", b, err)
	}
	if err := fs.Remove(SiteResultDelete, p); err != nil {
		t.Fatal(err)
	}
}

func mustInjector(t *testing.T, spec string) *Injector {
	t.Helper()
	in, err := NewFromString(spec)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestFSReadFaults(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f")
	payload := []byte("0123456789abcdef")
	if err := os.WriteFile(p, payload, 0o644); err != nil {
		t.Fatal(err)
	}

	errFS := FS{Inj: mustInjector(t, "io.result.read:err:1")}
	if _, err := errFS.ReadFile(SiteResultRead, p); !errors.Is(err, ErrInjected) {
		t.Errorf("ReadFile under err:1 = %v, want ErrInjected", err)
	}
	if _, err := errFS.Open(SiteResultRead, p); !errors.Is(err, ErrInjected) {
		t.Errorf("Open under err:1 = %v, want ErrInjected", err)
	}
	if err := errFS.Remove(SiteResultRead, p); !errors.Is(err, ErrInjected) {
		t.Errorf("Remove under err:1 = %v, want ErrInjected", err)
	}
	// The fault site must actually match: a trace-site rule leaves result
	// reads alone.
	other := FS{Inj: mustInjector(t, "io.trace:err:1")}
	if b, err := other.ReadFile(SiteResultRead, p); err != nil || len(b) != len(payload) {
		t.Errorf("mis-sited rule fired: %q, %v", b, err)
	}

	shortFS := FS{Inj: mustInjector(t, "io:shortread:1")}
	b, err := shortFS.ReadFile(SiteResultRead, p)
	if err != nil || len(b) != len(payload)/2 {
		t.Errorf("short ReadFile = %d bytes, %v; want %d silently", len(b), err, len(payload)/2)
	}
	f, err := shortFS.Open(SiteTraceRead, p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	b, err = io.ReadAll(f)
	if err != nil || len(b) != len(payload)/2 {
		t.Errorf("short Open read %d bytes, %v; want %d then EOF", len(b), err, len(payload)/2)
	}

	if total := shortFS.Inj.Total(); total != 2 {
		t.Errorf("injector counted %d faults, want 2", total)
	}
	if c := shortFS.Inj.Counts(); c[SiteResultRead+":shortread"] != 1 || c[SiteTraceRead+":shortread"] != 1 {
		t.Errorf("counts = %v", c)
	}
}

// TestWriteFileAtomicKinds tears the atomic write apart at each seam and
// checks exactly what each crash mode leaves on disk.
func TestWriteFileAtomicKinds(t *testing.T) {
	const payload = "0123456789abcdef"
	write := func(fs FS, p string) error {
		return fs.WriteFileAtomic(SiteResultWrite, p, func(w io.Writer) error {
			_, err := io.WriteString(w, payload)
			return err
		})
	}
	// tempsIn lists leftover atomic-write temp files in dir.
	tempsIn := func(dir string) []string {
		des, _ := os.ReadDir(dir)
		var out []string
		for _, de := range des {
			if de.Name() != "dest" {
				out = append(out, de.Name())
			}
		}
		return out
	}

	cases := []struct {
		kind      string
		wantErr   bool  // the write reports failure
		wantDest  int   // destination size afterwards (-1 = absent)
		wantTemps bool  // a temp file is left for recovery to sweep
		is        error // extra errors.Is identity, if any
	}{
		{kind: "err", wantErr: true, wantDest: -1},
		{kind: "enospc", wantErr: true, wantDest: -1, is: syscall.ENOSPC},
		{kind: "shortwrite", wantErr: true, wantDest: -1, wantTemps: true},
		{kind: "tornwrite", wantErr: false, wantDest: len(payload) / 2},
		{kind: "fsync", wantErr: true, wantDest: -1},
		{kind: "rename", wantErr: true, wantDest: -1, wantTemps: true},
	}
	for _, c := range cases {
		t.Run(c.kind, func(t *testing.T) {
			dir := t.TempDir()
			p := filepath.Join(dir, "dest")
			fs := FS{Inj: mustInjector(t, "io.result.write:"+c.kind+":1")}
			err := write(fs, p)
			if c.wantErr {
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("write = %v, want ErrInjected", err)
				}
				if c.is != nil && !errors.Is(err, c.is) {
					t.Errorf("write = %v, want errors.Is %v", err, c.is)
				}
			} else if err != nil {
				t.Fatalf("write = %v, want silent success", err)
			}
			st, statErr := os.Stat(p)
			if c.wantDest < 0 {
				if statErr == nil {
					t.Errorf("destination exists (%d bytes), want absent", st.Size())
				}
			} else if statErr != nil || st.Size() != int64(c.wantDest) {
				t.Errorf("destination = %v, %v; want %d bytes", st, statErr, c.wantDest)
			}
			if temps := tempsIn(dir); (len(temps) > 0) != c.wantTemps {
				t.Errorf("leftover temps %v, wantTemps=%v", temps, c.wantTemps)
			}
			// The fault consumed its probability-1 roll; a clean FS write
			// over the same path must still succeed and read back whole.
			if err := write(FS{}, p); err != nil {
				t.Fatal(err)
			}
			if b, err := os.ReadFile(p); err != nil || string(b) != payload {
				t.Errorf("clean rewrite read back %q, %v", b, err)
			}
		})
	}
}

// TestMiddlewareDropAndProbes: injected drops abort the connection (the
// client sees a transport error, not a status), but the probes are exempt —
// a chaos-mode daemon still reports liveness and readiness truthfully.
func TestMiddlewareDropAndProbes(t *testing.T) {
	inj := mustInjector(t, "http:drop:1")
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok"))
	})
	ts := httptest.NewServer(Middleware(inj, next))
	defer ts.Close()

	if _, err := http.Get(ts.URL + "/v1/stats"); err == nil {
		t.Error("drop:1 request completed, want transport error")
	}
	for _, probe := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + probe)
		if err != nil {
			t.Fatalf("GET %s under drop:1: %v", probe, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", probe, resp.StatusCode)
		}
	}
	if c := inj.Counts(); c["http:drop"] != 1 {
		t.Errorf("drop count = %v, want exactly the one API request", c)
	}

	// Disabled middleware is the handler itself, not a wrapper.
	mux := http.NewServeMux()
	if got := Middleware(nil, mux); got != http.Handler(mux) {
		t.Errorf("nil-injector middleware wrapped the handler: %T", got)
	}
}
