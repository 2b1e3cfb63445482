package dispatch

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"qcloud/internal/dispatch/wire"
	"qcloud/internal/journal"
)

// fillSealedDir leaves in dir the state a drained dispatcher does: jobs
// keyed submissions, the seal, and one result per job.
func fillSealedDir(tb testing.TB, dir string, jobs int) {
	tb.Helper()
	plans := testPlans(tb, 5, 400)
	q, err := OpenQueue(QueueConfig{Dir: dir, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	for i := range jobs {
		if _, _, err := q.Submit(fmt.Sprintf("load/%d", i), plans[i%len(plans)]); err != nil {
			tb.Fatal(err)
		}
	}
	if err := q.Seal(); err != nil {
		tb.Fatal(err)
	}
	units, err := q.Pull("w1", jobs)
	if err != nil || len(units) != jobs {
		tb.Fatalf("pulled %d of %d units: %v", len(units), jobs, err)
	}
	reports := make([]Report, jobs)
	for i, u := range units {
		reports[i] = Report{Seq: u.Seq, Attempt: u.Attempt, Counts: []wire.Count{{Bits: "00", N: 9}, {Bits: "11", N: 7}}}
	}
	if _, err := q.Exchange("w1", reports, 0); err != nil {
		tb.Fatal(err)
	}
	if err := q.Close(); err != nil {
		tb.Fatal(err)
	}
}

// keptCounts holds what decodeFloor keeps, so the copies are made.
var keptCounts []wire.Count

// decodeFloor is what replaying dir costs however the queue stores it:
// every frame walked and decoded, and the counts of every result kept.
func decodeFloor(tb testing.TB, dir string) {
	var rec wire.WALRecord
	for _, stream := range []string{submitsDirName, resultsDirName} {
		_, err := journal.ForEach(filepath.Join(dir, stream), func(_ int64, payload []byte) error {
			if err := wire.DecodeWALRecord(payload, &rec); err != nil {
				return err
			}
			if len(rec.Counts) > 0 {
				keptCounts = slices.Clone(rec.Counts)
			}
			return nil
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
}

// TestOpenQueueReplayAllocs bounds what a restart allocates beyond
// decoding its records: tasks come in chunks and the task table is
// sized from the watermark, so the queue's own share stays under one
// allocation per ten jobs — a Task allocated per record would add one
// a job. A sealed restart takes no keyed submit,
// so it never builds the key index.
func TestOpenQueueReplayAllocs(t *testing.T) {
	const jobs = 2000
	dir := t.TempDir()
	fillSealedDir(t, dir, jobs)
	open := func() *Queue {
		q, err := OpenQueue(QueueConfig{Dir: dir, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	q := open()
	if st := q.Stats(); st.Jobs != jobs || st.Done != jobs || !st.Sealed {
		t.Fatalf("replayed %+v", st)
	}
	if q.byKey != nil {
		t.Fatal("replay built the key index")
	}
	if c := cap(q.tasks); c < jobs || c > jobs+1 { // the watermark counts the seal too
		t.Fatalf("task table has capacity %d for %d jobs", c, jobs)
	}
	if _, dup, err := q.Submit("load/7", wire.Spec{}); err != nil || !dup {
		t.Fatalf("resubmitting a replayed key = (dup %v, %v)", dup, err)
	}
	q.Close()

	replay := testing.AllocsPerRun(5, func() { open().Close() })
	floor := testing.AllocsPerRun(5, func() { decodeFloor(t, dir) })
	t.Logf("%d jobs: %.0f allocations a replay, %.0f of them decoding", jobs, replay, floor)
	if own := replay - floor; own > jobs/10 {
		t.Fatalf("OpenQueue allocates %.0f times over %d jobs, %.0f of them beyond decoding the records", replay, jobs, own)
	}
}

// BenchmarkOpenQueueReplay restarts a queue on the state a drained
// 5 134-job run leaves (the reopen workload's size) and reports the
// replay per WAL record.
func BenchmarkOpenQueueReplay(b *testing.B) {
	const jobs = 5134
	dir := b.TempDir()
	fillSealedDir(b, dir, jobs)
	b.ReportAllocs()
	for b.Loop() {
		q, err := OpenQueue(QueueConfig{Dir: dir, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		q.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*jobs+1), "ns/rec")
}

// FuzzOpenQueueWatermark frames a mutated watermark payload as a
// checksummed checkpoint file beside a small valid log. Whatever the
// watermark claims — 2^62 submit records included — OpenQueue must
// either recover or refuse, refuse exactly when a decodable watermark
// exceeds a stream's valid prefix, and size nothing by the claim.
func FuzzOpenQueueWatermark(f *testing.F) {
	tmpl := f.TempDir()
	q, err := OpenQueue(QueueConfig{Dir: tmpl, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	plans := testPlans(f, 5, 20)
	for i, p := range plans[:6] {
		if _, _, err := q.Submit(fmt.Sprintf("c/%d", i), p); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := q.Pull("w1", 3); err != nil {
		f.Fatal(err)
	}
	if _, _, err := q.Result("w1", 0, 0, map[string]int{"01": 3}, ""); err != nil {
		f.Fatal(err)
	}
	if _, _, err := q.Cancel("c/4", 0); err != nil {
		f.Fatal(err)
	}
	if err := q.Seal(); err != nil {
		f.Fatal(err)
	}
	if err := q.Close(); err != nil {
		f.Fatal(err)
	}
	var recs [2]int64
	segs := map[string][]byte{}
	for i, stream := range []string{submitsDirName, resultsDirName} {
		scan, err := journal.Scan(filepath.Join(tmpl, stream))
		if err != nil {
			f.Fatal(err)
		}
		recs[i] = scan.Records
		names, err := filepath.Glob(filepath.Join(tmpl, stream, "*.seg"))
		if err != nil {
			f.Fatal(err)
		}
		for _, n := range names {
			b, err := os.ReadFile(n)
			if err != nil {
				f.Fatal(err)
			}
			segs[filepath.Join(stream, filepath.Base(n))] = b
		}
	}

	subRecs, resRecs := recs[0], recs[1]
	mark := func(sub, res int64) []byte {
		return binary.AppendVarint(binary.AppendVarint([]byte{wire.WALVersion}, sub), res)
	}
	f.Add(mark(subRecs, resRecs))
	f.Add(mark(subRecs+1, resRecs))
	f.Add(mark(subRecs, resRecs+1))
	f.Add(mark(1<<62, 0))
	f.Add(mark(1<<40, resRecs))
	f.Add(mark(0, 1<<62))
	f.Add(mark(-1, -1))
	f.Add(append(mark(subRecs, resRecs), 0))
	f.Add([]byte{wire.WALVersion + 1, 2, 2})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		dir := t.TempDir()
		for name, b := range segs {
			if err := os.MkdirAll(filepath.Join(dir, filepath.Dir(name)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, ckptName)
		if err := os.WriteFile(path, journal.AppendFrame([]byte(ckptMagic), payload), 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := readCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		refuse := ck != nil && (ck.SubmitRecs > subRecs || ck.ResultRecs > resRecs)

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		q, err := OpenQueue(QueueConfig{Dir: dir, Seed: 5})
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
			t.Fatalf("watermark %+v: OpenQueue allocated %d bytes", ck, grew)
		}
		switch {
		case refuse && (err == nil || !strings.Contains(err.Error(), "checkpoint pins")):
			t.Fatalf("watermark %+v over a log of %d and %d records: OpenQueue = %v, want the watermark refusal", ck, subRecs, resRecs, err)
		case !refuse && err != nil:
			t.Fatalf("watermark %+v within a log of %d and %d records refused: %v", ck, subRecs, resRecs, err)
		case !refuse:
			if st := q.Stats(); st.Jobs != 6 || st.Done != 1 || st.Cancelled != 1 || !st.Sealed {
				t.Fatalf("watermark %+v: recovered %+v", ck, st)
			}
			q.Close()
		}
	})
}
