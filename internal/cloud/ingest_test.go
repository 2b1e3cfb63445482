package cloud_test

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"strconv"
	"testing"

	"qcloud/internal/cloud"
)

// TestFormatCountsCanonicalForm pins the counts cell AppendCountsRow
// writes from SortedCounts: "bits:n" pairs joined by spaces in bitstring
// order.
func TestFormatCountsCanonicalForm(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   map[string]int
		want string
	}{
		{"nil", nil, ""},
		{"empty", map[string]int{}, ""},
		{"single", map[string]int{"0": 512}, "0:512"},
		{"bitstring order", map[string]int{"11": 3, "00": 1, "10": 20, "01": 0}, "00:1 01:0 10:20 11:3"},
		{"count wider than the size estimate", map[string]int{"1": 1234567890123, "0": 7}, "0:7 1:1234567890123"},
		{"mixed key lengths", map[string]int{"10": 1, "1": 2, "": 3}, ":3 1:2 10:1"},
	} {
		row := string(cloud.AppendCountsRow(nil, 0, "c", 1, 1, false, "", cloud.SortedCounts(tc.in)))
		if want := "0,c,1,1,ok,," + tc.want + "\n"; row != want {
			t.Errorf("%s: row = %q, want %q", tc.name, row, want)
		}
	}
}

// TestFormatCountsLinear pins the cell builder at a handful of
// allocations (the pair slice; the row buffer is reused, as the CSV
// writers reuse theirs) however many entries the cell has: appending to
// a string per entry costs two allocations per entry, 2 048 here.
func TestFormatCountsLinear(t *testing.T) {
	m := make(map[string]int, 1024)
	for i := 0; i < 1024; i++ {
		m[fmt.Sprintf("%018b", i*251)] = i%7 + 1
	}
	var buf []byte
	if avg := testing.AllocsPerRun(20, func() {
		buf = cloud.AppendCountsRow(buf[:0], 0, "c", 1, 1, false, "", cloud.SortedCounts(m))
	}); avg > 4 {
		t.Fatalf("a row of 1 024 entries allocates %v times, want <= 4", avg)
	}
}

func resultRows() []cloud.JobResult {
	return []cloud.JobResult{
		{Seq: 3, Circuit: "qft8", Batch: 2, Shots: 512, Counts: map[string]int{"01": 300, "10": 212}},
		{Seq: 1, Circuit: "ghz5", Batch: 1, Shots: 100, Counts: map[string]int{"00000": 100}},
		{Seq: 7, Circuit: "bv6", Batch: 4, Shots: 64, Cancelled: true},
		{Seq: 4, Circuit: "qft8", Batch: 2, Shots: 512, Err: "qsim: 30 qubits outside [1,24]"},
		{Seq: 2, Circuit: "ghz5", Batch: 1, Shots: 1, Counts: map[string]int{}},
	}
}

func resultCSV(t *testing.T, rs *cloud.ResultSet) string {
	t.Helper()
	var buf bytes.Buffer
	if err := rs.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestResultSetCSVIndependentOfIngestOrder writes the same outcomes in
// three arrival orders and requires one file, with cancelled and error
// rows in their seq position.
func TestResultSetCSVIndependentOfIngestOrder(t *testing.T) {
	const want = `seq,circuit,batch,shots,status,error,counts
1,ghz5,1,100,ok,,00000:100
2,ghz5,1,1,ok,,
3,qft8,2,512,ok,,01:300 10:212
4,qft8,2,512,error,"qsim: 30 qubits outside [1,24]",
7,bv6,4,64,cancelled,,
`
	rows := resultRows()
	for _, order := range [][]int{{0, 1, 2, 3, 4}, {4, 3, 2, 1, 0}, {2, 0, 4, 1, 3}} {
		rs := cloud.NewResultSet()
		for _, i := range order {
			if !rs.Ingest(rows[i]) {
				t.Fatalf("order %v: first result for seq %d refused", order, rows[i].Seq)
			}
		}
		if got := resultCSV(t, rs); got != want {
			t.Fatalf("order %v: WriteCSV =\n%s\nwant\n%s", order, got, want)
		}
	}
}

func TestResultSetFirstWriteWins(t *testing.T) {
	rs := cloud.NewResultSet()
	first := cloud.JobResult{Seq: 5, Circuit: "qft8", Batch: 1, Shots: 8, Counts: map[string]int{"0": 8}}
	if !rs.Ingest(first) {
		t.Fatal("first result refused")
	}
	before := resultCSV(t, rs)
	for _, late := range []cloud.JobResult{
		{Seq: 5, Circuit: "qft8", Batch: 1, Shots: 8, Counts: map[string]int{"1": 8}},
		{Seq: 5, Err: "late failure"},
		{Seq: 5, Cancelled: true},
	} {
		if rs.Ingest(late) {
			t.Fatalf("duplicate %+v for seq 5 was kept", late)
		}
	}
	if rs.Len() != 1 {
		t.Fatalf("Len = %d after duplicates, want 1", rs.Len())
	}
	if got, _ := rs.Get(5); got.Counts["0"] != 8 || got.Err != "" || got.Cancelled {
		t.Fatalf("seq 5 holds %+v, want the first outcome", got)
	}
	if after := resultCSV(t, rs); after != before {
		t.Fatalf("duplicates changed the file:\n%s\nvs\n%s", after, before)
	}
}

// FuzzAppendCountsRow holds the counts row to encoding/csv: whatever
// the label, error string and bitstrings, AppendCountsRow writes the
// bytes a csv.Writer writes for the same fields.
func FuzzAppendCountsRow(f *testing.F) {
	f.Add(int64(3), "qft8", 2, 512, false, "", "01", 300)
	f.Add(int64(-1), `a,"b"`, 0, -5, false, " leading space", `\.`, 0)
	f.Add(int64(7), "\u00a0nbsp", 1, 1, true, "line\r\nbreak", " x,y", 1)
	f.Add(int64(0), `\.`, 1, 1, false, `\.`, "", 2)
	f.Add(int64(9), "\t", 1, 1, false, "cr\ronly", "\"", -3)
	f.Add(int64(11), "\xff", 1, 1, false, "\xff", "\xff", 4)
	f.Fuzz(func(t *testing.T, seq int64, circuit string, batch, shots int, cancelled bool, errMsg, bits string, n int) {
		// Two pairs, sorted without repeats; no pairs when bits is empty.
		var counts []cloud.Count
		cell := ""
		if bits != "" {
			counts = []cloud.Count{{Bits: bits, N: n}, {Bits: bits + "1", N: n / 2}}
			cell = fmt.Sprintf("%s:%d %s1:%d", bits, n, bits, n/2)
		}
		status := "ok"
		if cancelled {
			status = "cancelled"
		} else if errMsg != "" {
			status = "error"
		}
		var want bytes.Buffer
		cw := csv.NewWriter(&want)
		if err := cw.Write([]string{strconv.FormatInt(seq, 10), circuit, strconv.Itoa(batch), strconv.Itoa(shots), status, errMsg, cell}); err != nil {
			t.Fatal(err)
		}
		cw.Flush()
		if got := cloud.AppendCountsRow(nil, seq, circuit, batch, shots, cancelled, errMsg, counts); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("AppendCountsRow = %q, encoding/csv writes %q", got, want.Bytes())
		}
	})
}
