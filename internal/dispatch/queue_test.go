package dispatch

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"qcloud/internal/cloud"
	"qcloud/internal/dispatch/wire"
	"qcloud/internal/qsim"
	"qcloud/internal/workload"
)

// testPlans builds a small deterministic workload's exec plans.
func testPlans(t testing.TB, seed int64, jobs int) []wire.Spec {
	t.Helper()
	start := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	specs := workload.Generate(workload.Config{
		Seed: seed, TotalJobs: jobs,
		Start: start, End: start.Add(30 * 24 * time.Hour),
	})
	if len(specs) == 0 {
		t.Fatal("empty workload")
	}
	caps := wire.ExecCaps{MaxWidth: 4, MaxBatch: 1, MaxShots: 16}
	plans := make([]wire.Spec, len(specs))
	for i, js := range specs {
		plans[i] = wire.Plan(js, caps, seed, i)
	}
	return plans
}

// fakeClock is an injectable, manually-advanced wall clock.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func openTestQueue(t *testing.T, dir string, clk *fakeClock, events *[]wire.Event) *Queue {
	t.Helper()
	cfg := QueueConfig{
		Dir:   dir,
		Seed:  11,
		Lease: time.Second,
		Retry: &cloud.RetryPolicy{MaxAttempts: 2, BaseBackoff: 10 * time.Millisecond, MaxBackoff: 20 * time.Millisecond},
	}
	if clk != nil {
		cfg.Now = clk.Now
	}
	if events != nil {
		cfg.OnEvent = func(ev wire.Event) { *events = append(*events, ev) }
	}
	q, err := OpenQueue(cfg)
	if err != nil {
		t.Fatalf("OpenQueue: %v", err)
	}
	return q
}

func TestQueueSubmitIdempotentAndSeal(t *testing.T) {
	plans := testPlans(t, 3, 10)
	q := openTestQueue(t, t.TempDir(), nil, nil)
	defer q.Close()

	seq0, dup, err := q.Submit("c/0", plans[0])
	if err != nil || dup || seq0 != 0 {
		t.Fatalf("first submit = (%d, %v, %v)", seq0, dup, err)
	}
	again, dup, err := q.Submit("c/0", plans[0])
	if err != nil || !dup || again != seq0 {
		t.Fatalf("duplicate submit = (%d, %v, %v), want (0, true, nil)", again, dup, err)
	}
	if _, _, err := q.Submit("c/1", plans[1]); err != nil {
		t.Fatal(err)
	}
	if err := q.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Submit("c/2", plans[2]); err != ErrSealed {
		t.Fatalf("post-seal submit err = %v, want ErrSealed", err)
	}
	// Sealed duplicates still resolve: the load client may re-send
	// after a restart that happened post-seal.
	if _, dup, err := q.Submit("c/1", plans[1]); err != nil || !dup {
		t.Fatalf("post-seal duplicate = (%v, %v), want (true, nil)", dup, err)
	}
	if st := q.Stats(); st.Jobs != 2 || !st.Sealed {
		t.Fatalf("stats = %+v", st)
	}
}

// TestQueuePartialRetryPolicy: each zero field of a caller's retry
// policy takes the daemon default, not the session's: a zero
// MaxAttempts does not fail a unit on its first lease expiry, and a
// zero BaseBackoff does not hold it back for the session's minute.
func TestQueuePartialRetryPolicy(t *testing.T) {
	plans := testPlans(t, 3, 10)
	for _, policy := range []cloud.RetryPolicy{{BaseBackoff: 100 * time.Millisecond}, {MaxAttempts: 2}} {
		clk := &fakeClock{now: time.Unix(1_700_000_000, 0)}
		given := policy
		q, err := OpenQueue(QueueConfig{Dir: t.TempDir(), Seed: 11, Lease: time.Second, Retry: &given, Now: clk.Now})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := q.Submit("c/0", plans[0]); err != nil {
			t.Fatal(err)
		}
		if units, err := q.Pull("w1", 1); err != nil || len(units) != 1 {
			t.Fatalf("%+v: pull = %v, %v", policy, units, err)
		}
		clk.Advance(2 * time.Second)
		if st := q.Stats(); st.Queued != 1 || st.Failed != 0 {
			t.Errorf("%+v: after one lease expiry: %+v, want the unit requeued", policy, q.Stats())
		}
		clk.Advance(time.Second)
		if units, err := q.Pull("w2", 1); err != nil || len(units) != 1 || units[0].Attempt != 1 {
			t.Errorf("%+v: a second later: pull = %v, %v, want attempt 1", policy, units, err)
		}
		if given != policy {
			t.Errorf("OpenQueue filled the caller's policy: %+v, was %+v", given, policy)
		}
		q.Close()
	}
}

func TestQueueLeaseExpiryRequeuesThenFails(t *testing.T) {
	plans := testPlans(t, 3, 10)
	clk := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	var events []wire.Event
	q := openTestQueue(t, t.TempDir(), clk, &events)
	defer q.Close()

	if _, _, err := q.Submit("c/0", plans[0]); err != nil {
		t.Fatal(err)
	}
	units, err := q.Pull("w1", 4)
	if err != nil || len(units) != 1 || units[0].Attempt != 0 {
		t.Fatalf("pull = %v, %v", units, err)
	}
	// Heartbeats keep the lease alive across the nominal deadline.
	clk.Advance(900 * time.Millisecond)
	if n := q.Heartbeat("w1", []int64{0}); n != 1 {
		t.Fatalf("heartbeat extended %d, want 1", n)
	}
	clk.Advance(900 * time.Millisecond)
	if st := q.Stats(); st.Leased != 1 {
		t.Fatalf("lease lost despite heartbeat: %+v", st)
	}

	// Silence: the lease expires, attempt 1 is consumed, the unit
	// requeues behind the retry backoff.
	clk.Advance(2 * time.Second)
	if st := q.Stats(); st.Queued != 1 || st.Leased != 0 {
		t.Fatalf("after expiry: %+v", st)
	}
	// Not eligible until the backoff gate opens.
	if units, _ := q.Pull("w2", 4); len(units) != 0 {
		t.Fatalf("pulled %v before backoff opened", units)
	}
	clk.Advance(time.Second)
	units, err = q.Pull("w2", 4)
	if err != nil || len(units) != 1 || units[0].Attempt != 1 {
		t.Fatalf("requeued pull = %v, %v (want attempt 1)", units, err)
	}
	// Second expiry exhausts MaxAttempts=2: terminal failure.
	clk.Advance(5 * time.Second)
	st := q.Stats()
	if st.Failed != 1 || st.Queued != 0 || st.Leased != 0 {
		t.Fatalf("after exhaustion: %+v", st)
	}

	var kinds []cloud.EventKind
	for _, ev := range events {
		kinds = append(kinds, ev.Kind)
	}
	want := []cloud.EventKind{
		cloud.EventEnqueue, cloud.EventStart, cloud.EventRetry,
		cloud.EventRequeue, cloud.EventStart, cloud.EventError,
	}
	if len(kinds) != len(want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %s, want %s (all: %v)", i, kinds[i], want[i], kinds)
		}
	}
}

func TestQueueLateResultAfterExpiryAccepted(t *testing.T) {
	plans := testPlans(t, 3, 10)
	clk := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	q := openTestQueue(t, t.TempDir(), clk, nil)
	defer q.Close()

	if _, _, err := q.Submit("c/0", plans[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Pull("w1", 1); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Second) // lease expires, unit requeues
	accepted, state, err := q.Result("w1", 0, 0, map[string]int{"00": 16}, "")
	if err != nil || !accepted || state != TaskDone {
		t.Fatalf("late result = (%v, %v, %v)", accepted, state, err)
	}
	// A duplicate report of the now-terminal unit is dropped.
	accepted, state, err = q.Result("w2", 0, 1, map[string]int{"00": 16}, "")
	if err != nil || accepted || state != TaskDone {
		t.Fatalf("duplicate result = (%v, %v, %v)", accepted, state, err)
	}
	if st := q.Stats(); st.Done != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueueReopenRestoresStateAndForgetsLeases(t *testing.T) {
	plans := testPlans(t, 3, 20)
	dir := t.TempDir()
	q := openTestQueue(t, dir, nil, nil)
	if q.Recovered() {
		t.Fatal("fresh queue claims recovery")
	}
	for i, p := range plans[:6] {
		if _, _, err := q.Submit(key(t, i), p); err != nil {
			t.Fatal(err)
		}
	}
	// One done, one failed, one cancelled, one leased, two queued.
	if _, err := q.Pull("w1", 2); err != nil { // leases seq 0,1
		t.Fatal(err)
	}
	if _, _, err := q.Result("w1", 0, 0, map[string]int{"0000": 16}, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Result("w1", 1, 0, nil, "deterministic build failure"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Cancel("", 2); err != nil {
		t.Fatal(err)
	}
	if units, err := q.Pull("w1", 1); err != nil || len(units) != 1 || units[0].Seq != 3 {
		t.Fatalf("lease pull = %v, %v", units, err)
	}
	if err := q.Seal(); err != nil {
		t.Fatal(err)
	}
	before := q.CountsCSV()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTestQueue(t, dir, nil, nil)
	defer r.Close()
	if !r.Recovered() {
		t.Fatal("reopened queue does not report recovery")
	}
	st := r.Stats()
	if st.Jobs != 6 || st.Done != 1 || st.Failed != 1 || st.Cancelled != 1 ||
		st.Leased != 0 || st.Queued != 3 || !st.Sealed {
		t.Fatalf("recovered stats = %+v", st)
	}
	// The idempotency index survives replay.
	if _, dup, err := r.Submit(key(t, 4), plans[4]); err != nil || !dup {
		t.Fatalf("post-recovery duplicate = (%v, %v)", dup, err)
	}
	// The done, failed and cancelled rows survive byte-exactly.
	if after := r.CountsCSV(); !bytes.Equal(after, before) || !bytes.Contains(after, []byte(",ok,,0000:16\n")) {
		t.Fatalf("recovered counts CSV\n%s\nbefore the restart\n%s", after, before)
	}
}

func key(t *testing.T, i int) string {
	t.Helper()
	return "c/" + string(rune('0'+i))
}

// segFiles reads every segment of both streams, by path.
func segFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "*", "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(segs))
	for _, s := range segs {
		b, err := os.ReadFile(s)
		if err != nil {
			t.Fatal(err)
		}
		files[s] = string(b)
	}
	return files
}

func TestQueueWatermarkViolationRefusesRecovery(t *testing.T) {
	plans := testPlans(t, 3, 10)
	dir := t.TempDir()
	q := openTestQueue(t, dir, nil, nil)
	for i, p := range plans[:3] {
		if _, _, err := q.Submit(key(t, i), p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Pull("w1", 3); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Result("w1", 0, 0, map[string]int{"00": 1}, ""); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil { // checkpoint pins both streams
		t.Fatal(err)
	}

	// Losing a whole journaled stream is not a crash tail: the
	// checkpoint watermark must refuse to silently un-happen acked
	// completions.
	segs, err := filepath.Glob(filepath.Join(dir, resultsDirName, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no result segments: %v %v", segs, err)
	}
	for _, s := range segs {
		if err := os.Remove(s); err != nil {
			t.Fatal(err)
		}
	}
	// A torn tail on the surviving stream is what opening it for
	// append would cut away.
	subSegs, err := filepath.Glob(filepath.Join(dir, submitsDirName, "*.seg"))
	if err != nil || len(subSegs) == 0 {
		t.Fatalf("no submit segments: %v %v", subSegs, err)
	}
	f, err := os.OpenFile(subSegs[len(subSegs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before := segFiles(t, dir)
	if _, err := OpenQueue(QueueConfig{Dir: dir, Seed: 11}); err == nil {
		t.Fatal("recovery succeeded despite completion log loss")
	}
	// The refusal comes between the scans and the opens: a damaged log
	// is evidence, and nothing of it is truncated, removed or created.
	if after := segFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("a refused recovery changed the logs: %d segments before, %d after", len(before), len(after))
	}
}

func TestQueueTornTailTolerated(t *testing.T) {
	plans := testPlans(t, 3, 10)
	dir := t.TempDir()
	q := openTestQueue(t, dir, nil, nil)
	for i, p := range plans[:3] {
		if _, _, err := q.Submit(key(t, i), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash can tear the tail of the last frame; garbage past the
	// valid prefix must not block recovery. (Anything before the
	// checkpoint watermark is covered by the previous test.)
	segs, err := filepath.Glob(filepath.Join(dir, submitsDirName, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no submit segments: %v %v", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r := openTestQueue(t, dir, nil, nil)
	defer r.Close()
	if st := r.Stats(); st.Jobs != 3 {
		t.Fatalf("recovered stats = %+v", st)
	}
}

// appendFrame appends one well-framed record, whatever its payload, to
// a WAL stream that already holds at records.
func appendFrame(t *testing.T, dir string, at int64, payload []byte) {
	t.Helper()
	w := openStreamAt(t, dir, at)
	if err := w.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestQueueReplayErrorsNameStreamAndRecord: a record whose frame is
// intact and whose payload is not — a short field, an unknown tag,
// bytes left over, another layout version, a type that belongs to the
// other stream, a seq nobody submitted — stops recovery with an error
// naming the stream and the record's index. It never recovers to a
// queue that is silently one record short.
func TestQueueReplayErrorsNameStreamAndRecord(t *testing.T) {
	plans := testPlans(t, 3, 10)
	enc := func(r wire.WALRecord) []byte { return wire.AppendWALRecord(nil, &r) }
	submit := enc(wire.WALRecord{Type: wire.WALSubmit, Seq: 2, Key: "c/2", Spec: plans[2]})
	result := enc(wire.WALRecord{Type: wire.WALResult, Seq: 1, Worker: "w1", Counts: []wire.Count{{Bits: "00", N: 1}}})
	cancel := enc(wire.WALRecord{Type: wire.WALCancel, Seq: 1})
	withVersion := func(b []byte, v byte) []byte { return append([]byte{v}, b[1:]...) }
	for _, c := range []struct {
		name, stream string
		payload      []byte
		want         string
	}{
		{"truncated field", submitsDirName, submit[:len(submit)-3], "submit record 2: wire: WAL record: truncated"},
		{"unknown tag", submitsDirName, []byte{wire.WALVersion, 9}, "submit record 2: wire: WAL record: unknown type tag 9"},
		{"trailing bytes", submitsDirName, append(bytes.Clone(submit), 0, 0), "submit record 2: wire: WAL record: 2 trailing bytes"},
		{"wrong layout version", submitsDirName, withVersion(submit, 7), "submit record 2: wire: WAL record: version 7, want 1"},
		{"completion type in the submit log", submitsDirName, cancel, "submit record 2: unexpected type cancel"},
		{"seq out of order", submitsDirName, enc(wire.WALRecord{Type: wire.WALSubmit, Seq: 5, Spec: plans[2]}), "submit record 2: seq 5 out of order (want 2)"},
		{"truncated field", resultsDirName, result[:len(result)-1], "completion record 1: wire: WAL record: truncated"},
		{"unknown tag", resultsDirName, []byte{wire.WALVersion, 0}, "completion record 1: wire: WAL record: unknown type tag 0"},
		{"trailing bytes", resultsDirName, append(bytes.Clone(cancel), 0), "completion record 1: wire: WAL record: 1 trailing bytes"},
		{"wrong layout version", resultsDirName, withVersion(cancel, 0), "completion record 1: wire: WAL record: version 0, want 1"},
		{"submit type in the completion log", resultsDirName, enc(wire.WALRecord{Type: wire.WALSeal}), "completion record 1: unexpected type seal"},
		{"unknown seq", resultsDirName, enc(wire.WALRecord{Type: wire.WALExpire, Seq: 2, Attempt: 1}), "completion record 1: unknown seq 2"},
	} {
		t.Run(c.stream+"/"+c.name, func(t *testing.T) {
			dir := t.TempDir()
			q := openTestQueue(t, dir, nil, nil)
			for i, p := range plans[:2] {
				if _, _, err := q.Submit(key(t, i), p); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := q.Result("w1", 0, 0, map[string]int{"00": 1}, ""); err != nil {
				t.Fatal(err)
			}
			if err := q.Close(); err != nil {
				t.Fatal(err)
			}
			at := map[string]int64{submitsDirName: 2, resultsDirName: 1}[c.stream]
			appendFrame(t, filepath.Join(dir, c.stream), at, c.payload)

			r, err := OpenQueue(QueueConfig{Dir: dir, Seed: 11})
			if err == nil {
				st := r.Stats()
				r.Close()
				t.Fatalf("recovered to %+v", st)
			}
			stream := map[string]string{submitsDirName: "replaying submit log: ", resultsDirName: "replaying completion log: "}[c.stream]
			if !strings.Contains(err.Error(), stream+c.want) {
				t.Errorf("error %q\n does not contain %q", err, stream+c.want)
			}
		})
	}
}

// TestQueueRefusesJSONEraStateDir: a state dir whose WAL holds the JSON
// envelope records of earlier versions is refused by name — the record,
// and the layout version its first byte reads as — and is left exactly
// as it was found: no truncation, no new segment.
func TestQueueRefusesJSONEraStateDir(t *testing.T) {
	dir := t.TempDir()
	old := `{"v":1,"type":"submit","data":{"seq":0,"key":"c/0","spec":{"submit_time":"2019-01-02T03:04:05Z","user":"u","machine":"m","exec_kind":"ghz","exec_width":2,"exec_batch":1,"exec_shots":1,"exec_seed":7}}}`
	appendFrame(t, filepath.Join(dir, submitsDirName), 0, []byte(old))
	snapshot := func() map[string]string {
		files := map[string]string{}
		err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			b, err := os.ReadFile(path)
			files[path] = string(b)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	before := snapshot()

	q, err := OpenQueue(QueueConfig{Dir: dir, Seed: 11})
	if err == nil {
		st := q.Stats()
		q.Close()
		t.Fatalf("a JSON-era state dir was opened: %+v", st)
	}
	if want := "submit record 0: wire: WAL record: version 123, want 1"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
	after := snapshot()
	if len(before) != 1 || len(after) != len(before) {
		t.Fatalf("the state dir held %d files and holds %d", len(before), len(after))
	}
	for path, b := range before {
		if after[path] != b {
			t.Errorf("%s changed", path)
		}
	}
}

// TestCountsCSVMatchesRunLocal: the counts CSV written from the task
// table is byte-identical to wire.RunLocal's ResultSet.WriteCSV over the
// same outcomes — done, failed and cancelled rows; error strings and a
// circuit label that need CSV quoting; a cell of more than 1 000 keys.
func TestCountsCSVMatchesRunLocal(t *testing.T) {
	plans := testPlans(t, 3, 12)[:7]
	// Seq 0: a uniform 11-qubit distribution, thousands of distinct keys.
	plans[0].ExecKind, plans[0].ExecWidth, plans[0].ExecBatch, plans[0].ExecShots = "qft", 11, 1, 8192
	// Seq 2 fails to build, naming a kind that needs quoting.
	plans[2].ExecKind = "a,\"b\" c"
	rs, err := wire.RunLocal(plans[:3], qsim.Parallelism{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := rs.Get(0); len(r.Counts) <= 1000 {
		t.Fatalf("seq 0 has %d keys, want more than 1 000", len(r.Counts))
	}
	// Outcomes RunLocal never produces: reported failures and cancels.
	failed := map[int64]string{3: "a, \"quoted\"\nsecond line", 4: " leading space"}
	for seq, msg := range failed {
		rs.Ingest(cloud.JobResult{Seq: seq, Circuit: plans[seq].ExecLabel(), Batch: plans[seq].ExecBatch, Shots: plans[seq].ExecShots, Err: msg})
	}
	rs.Ingest(cloud.JobResult{Seq: 5, Circuit: plans[5].ExecLabel(), Batch: plans[5].ExecBatch, Shots: plans[5].ExecShots, Cancelled: true})
	var want bytes.Buffer
	if err := rs.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}

	q := openTestQueue(t, t.TempDir(), nil, nil)
	defer q.Close()
	for i, p := range plans {
		if _, _, err := q.Submit(key(t, i), p); err != nil {
			t.Fatal(err)
		}
	}
	reports := make([]Report, 0, 5)
	for seq := int64(0); seq < 3; seq++ {
		r, _ := rs.Get(seq)
		reports = append(reports, Report{Seq: seq, Counts: wire.CountsToPairs(r.Counts), Err: r.Err})
	}
	for seq, msg := range failed {
		reports = append(reports, Report{Seq: seq, Err: msg})
	}
	if _, err := q.Exchange("w1", reports, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Cancel("", 5); err != nil {
		t.Fatal(err)
	}
	// Seq 6 is still queued: no row.
	if got := q.CountsCSV(); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("task-table counts CSV\n%.2000s\nResultSet.WriteCSV\n%.2000s", got, want.Bytes())
	}
}
