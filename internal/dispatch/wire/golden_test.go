package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"qcloud/internal/cloud"
)

// goldenJobSpecs is a fixed submission stream covering the encodings'
// edge cases: zero and non-zero PatienceSec (omitempty in JSON), both
// Privileged values, SubmitTimes in a non-UTC zone with nanoseconds,
// the zero time, and strings JSON escapes. internal/cloud's
// TestSubmitRecordGolden pins the session's input-log encoding of the
// same stream.
func goldenJobSpecs() []cloud.JobSpec {
	zone := time.FixedZone("", -5*3600-30*60)
	at := time.Date(2021, 3, 14, 9, 26, 53, 589793238, zone)
	users := []string{"user-07", "tenant:team-α/grp", `<q&"a">`}
	kinds := []string{"ghz", "bv", "qft", "qaoa", "vqe", "random"}
	specs := []cloud.JobSpec{{}}
	for i := 0; i < 12; i++ {
		specs = append(specs, cloud.JobSpec{
			SubmitTime:   at.Add(time.Duration(i)*97*time.Minute + time.Duration(i*i)),
			User:         users[i%len(users)],
			Machine:      []string{"ibmq_athens", "ibmq_16_melbourne"}[i%2],
			BatchSize:    1 + 13*i,
			Shots:        1024 << (i % 4),
			CircuitName:  fmt.Sprint(kinds[i%len(kinds)], 3+i),
			Width:        3 + i,
			TotalDepth:   10*i + 1,
			TotalGateOps: 40*i + 3,
			CXTotal:      7 * i,
			MemSlots:     3 + i,
			PatienceSec:  float64(i%3) * 1800.25,
			Privileged:   i%4 == 1,
		})
	}
	return specs
}

// TestSpecEncodingsGolden pins the bytes of the two encodings a Spec
// has: the POST /v1/submit JSON body and the WAL submit record. Round
// trips cannot see a change of field order, name or tag; these hashes
// can.
func TestSpecEncodingsGolden(t *testing.T) {
	js := goldenJobSpecs()
	body, wal := sha256.New(), sha256.New()
	for i := range js {
		spec := Plan(&js[i], ExecCaps{}, 11, i)
		raw, err := json.Marshal(SubmitRequest{V: Version, Key: fmt.Sprint("load/", i), Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		body.Write(raw)
		wal.Write(AppendWALRecord(nil, &WALRecord{Type: WALSubmit, Seq: int64(i), Key: fmt.Sprint("load/", i), Spec: spec}))
	}
	for _, c := range []struct {
		name string
		got  []byte
		want string
	}{
		{"SubmitRequest JSON", body.Sum(nil), "2eb3acb3efcacf059e5c061b91c32e8fbd60bad21635be3345c855d8c91be349"},
		{"WAL submit records", wal.Sum(nil), "676d3cef6753e374a3d4f8918ec066532ce871f5e415a7fb16f826c07ce0d7c0"},
	} {
		if got := hex.EncodeToString(c.got); got != c.want {
			t.Errorf("%s hash %s, want %s", c.name, got, c.want)
		}
	}
}
