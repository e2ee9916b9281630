package trace

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/emulator"
	"repro/internal/ifconvert"
	"repro/internal/isa"
	"repro/internal/program"
)

// corpusProfileSteps is the profile budget the corpus if-converts with
// (the benchmark's spec-cold workload uses the same).
const corpusProfileSteps = 200000

// loadSpec reads one of the committed example specs.
func loadSpec(tb testing.TB, file string) bench.Spec {
	tb.Helper()
	s, err := bench.Load("../../examples/customworkload/" + file)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// withIfConverted returns the plain program built from each spec and
// its profile-guided if-converted twin, named "<spec>" and
// "<spec>/ifconv".
func withIfConverted(tb testing.TB, specs []bench.Spec) (names []string, progs []*program.Program) {
	tb.Helper()
	for _, s := range specs {
		p := bench.Build(s)
		res, err := ifconvert.Convert(p, ifconvert.DefaultOptions(ifconvert.ProfileProgram(p, corpusProfileSteps)))
		if err != nil {
			tb.Fatal(err)
		}
		names = append(names, s.Name, s.Name+"/ifconv")
		progs = append(progs, p, res.Prog)
	}
	return names, progs
}

// traceDigest is the SHA-256 of a trace's event stream followed by its
// step count (8 bytes, little-endian) and its halted flag (one byte).
func traceDigest(t *Trace) string {
	h := sha256.New()
	h.Write(t.Events)
	var tail [9]byte
	binary.LittleEndian.PutUint64(tail[:8], t.Steps)
	if t.Halted {
		tail[8] = 1
	}
	h.Write(tail[:])
	return hex.EncodeToString(h.Sum(nil))
}

// pinnedDigests are the traceDigest values of 300k-step recordings,
// taken from the recorder as it stood before Record owned its step
// loop (an emulator hook observing every step). Any change to what a
// recording holds shows up here as a changed digest.
var pinnedDigests = map[string]string{
	"gzip":              "bf99d6eed5e29a42db86579b27387b9a3d0f62581b77c16b69f35b5cd48ff90b",
	"gzip/ifconv":       "0d238684e4687f9326f06271f9484564cb3aec7f45e5daeb105ea443e2077c9c",
	"mcf":               "c281021aefdedd767b2cc6959c106e6256e42c410cbe9979c97f9a5652dc4259",
	"mcf/ifconv":        "321115f549b43f64d970ed0052338ed9b34df6b160f005dfdbd174be337191bc",
	"vpr":               "9ce8fd22c2995bf5c4683ef9b07bd4dd605573b266b25cd8cfcada61cb87c1c7",
	"vpr/ifconv":        "dccf6b04314e3929568860141674d5ac322de17c6d52e5a7fc995cd427bfe6b8",
	"swim":              "0c34f0cedcbc740df1774615394fd92ea5760b243e38bf93b468f7f9d7a4ed05",
	"swim/ifconv":       "6e9d75d89f439ff304f0cc86fc453b6464ccaa27328c7cf3006c66315ead6e7a",
	"phasehop":          "bae601ff1cdddf4df3c1a12b8e879994cf29bcddef9ab88de0fd59f74b56755f",
	"phasehop/ifconv":   "9072a446ce9ceb8c945f6925bd5d7d50a4e409c80254d581018eb243abcd78c7",
	"indirstorm":        "fb15296a6269eb9e40aa228950c8e8aa52b99ae89c2e830deb2a884a666b685e",
	"indirstorm/ifconv": "4d7d56d5ddbe74fb505d45828cb1774d4547801015a8e093e927bc10a9e43af0",
}

// TestRecordPinnedDigests checks that recordings of four suite
// benchmarks and the two example specs, plain and if-converted, are
// byte-identical to the pinned ones.
func TestRecordPinnedDigests(t *testing.T) {
	var specs []bench.Spec
	for _, name := range []string{"gzip", "mcf", "vpr", "swim"} {
		s, err := bench.Find(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	specs = append(specs, loadSpec(t, "phasehop.json"), loadSpec(t, "indirstorm.toml"))
	names, progs := withIfConverted(t, specs)
	for i, p := range progs {
		tr, err := Record(context.Background(), p, 300000)
		if err != nil {
			t.Fatal(err)
		}
		got := traceDigest(tr)
		if want := pinnedDigests[names[i]]; got != want {
			t.Errorf("%s: digest %s, want %s", names[i], got, want)
		}
	}
}

// lastEvent decodes the whole stream and returns its final event and
// the instructions its events and gaps account for.
func lastEvent(t *testing.T, tr *Trace) (last Event, accounted uint64) {
	t.Helper()
	cur := tr.EventCursor()
	var ev Event
	for cur.Next(&ev) {
		accounted += ev.Gap + 1
		last = ev
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return last, accounted
}

// TestRecordRunsOffTheEnd checks a program whose PC leaves it through
// an indirect branch: the trace is halted, records no EvHalt, and
// counts the steps the emulator executed.
func TestRecordRunsOffTheEnd(t *testing.T) {
	b := program.NewBuilder("offend")
	b.MovI(1, 0).MovI(2, 100)
	b.Label("loop").
		AddI(1, 1, 1).
		Cmp(isa.RelLT, isa.CmpUnc, 10, 11, 1, 2).
		G(10).Br("loop").
		BrInd(2). // r2 = 100 is past the last instruction
		Halt()
	p := b.Program()
	em := emulator.New(p)
	em.Run(1 << 20)
	tr, err := Record(context.Background(), p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Halted || tr.Steps != em.Steps || tr.Steps != 2+3*100+1 {
		t.Fatalf("halted=%v steps=%d; want halted after %d steps (emulator %d)", tr.Halted, tr.Steps, 2+3*100+1, em.Steps)
	}
	last, accounted := lastEvent(t, tr)
	if last.Kind != EvBrInd || !last.Taken || last.Target != 100 || accounted != tr.Steps {
		t.Fatalf("last event %+v, %d steps accounted; want the taken brind to 100 ending all %d", last, accounted, tr.Steps)
	}
}

// TestRecordHaltsBeforeBudget checks a program that halts inside the
// budget: the trace is halted, ends with EvHalt, and counts the steps
// the emulator executed, the halt included.
func TestRecordHaltsBeforeBudget(t *testing.T) {
	p := everyKindProgram()
	em := emulator.New(p)
	em.Run(1 << 20)
	tr, err := Record(context.Background(), p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Halted || tr.Steps != em.Steps || tr.Steps >= 1<<20 {
		t.Fatalf("halted=%v steps=%d; want halted after the emulator's %d steps", tr.Halted, tr.Steps, em.Steps)
	}
	last, accounted := lastEvent(t, tr)
	if last.Kind != EvHalt || accounted != tr.Steps {
		t.Fatalf("last event kind %d, %d of %d steps accounted; want EvHalt ending the stream", last.Kind, accounted, tr.Steps)
	}
}

// specColdPrograms are the programs the benchmark's spec-cold workload
// records: phasehop at each of its four periods and indirstorm, plain
// and if-converted.
func specColdPrograms(tb testing.TB) []*program.Program {
	phase := loadSpec(tb, "phasehop.json")
	var specs []bench.Spec
	for _, period := range []int64{16, 64, 256, 1024} {
		s := phase
		s.Name = fmt.Sprintf("%s-p%d", phase.Name, period)
		s.PhasePeriod = period
		specs = append(specs, s)
	}
	specs = append(specs, loadSpec(tb, "indirstorm.toml"))
	_, progs := withIfConverted(tb, specs)
	return progs
}

// BenchmarkRecord reports the recorder's cost per committed
// instruction over the spec-cold programs at 1M steps each.
func BenchmarkRecord(b *testing.B) {
	const steps = 1000000
	progs := specColdPrograms(b)
	var instrs uint64
	var elapsed time.Duration
	b.ResetTimer()
	for range b.N {
		for _, p := range progs {
			start := time.Now()
			tr, err := Record(context.Background(), p, steps)
			elapsed += time.Since(start)
			if err != nil {
				b.Fatal(err)
			}
			instrs += tr.Steps
		}
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(instrs), "ns/instr")
}
