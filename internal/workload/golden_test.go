package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"time"

	"qcloud/internal/backend"
	"qcloud/internal/cloud"
	"qcloud/internal/tenant"
)

// appendSpec appends every field of s to b in a fixed binary layout.
func appendSpec(b []byte, s *cloud.JobSpec) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(s.SubmitTime.UnixNano()))
	b = append(b, s.SubmitTime.Location().String()...)
	b = append(b, 0)
	b = append(b, s.User...)
	b = append(b, 0)
	b = append(b, s.Machine...)
	b = append(b, 0)
	b = append(b, s.CircuitName...)
	b = append(b, 0)
	for _, v := range []int{s.BatchSize, s.Shots, s.Width, s.TotalDepth, s.TotalGateOps, s.CXTotal, s.MemSlots} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.PatienceSec))
	if s.Privileged {
		return append(b, 1)
	}
	return append(b, 0)
}

func hashSpecs(specs []*cloud.JobSpec) string {
	h := sha256.New()
	var b []byte
	for _, s := range specs {
		b = appendSpec(b[:0], s)
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashTenantBuild(tc tenant.Config, subs []tenant.Submission) string {
	h := sha256.New()
	var b []byte
	for _, q := range tc.Queues {
		b = append(b[:0], q.Name...)
		b = append(b, 0)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(q.Share))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(q.OverQuotaWeight))
		b = binary.LittleEndian.AppendUint64(b, uint64(q.Priority))
		h.Write(b)
	}
	b = binary.LittleEndian.AppendUint64(b[:0], uint64(tc.HalfLife))
	b = binary.LittleEndian.AppendUint64(b, uint64(tc.Tick))
	b = binary.LittleEndian.AppendUint64(b, uint64(tc.MaxPerMachine))
	if tc.Preemption {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	h.Write(b)
	for _, s := range subs {
		b = append(b[:0], s.Queue...)
		b = append(b, 0)
		h.Write(appendSpec(b, s.Spec))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// days is the window of n days from the study start, the shape the
// benchmark's generated workloads use.
func days(n int) (start, end time.Time) {
	return backend.StudyStart, backend.StudyStart.Add(time.Duration(n) * 24 * time.Hour)
}

// TestGenerateStreamGolden pins every field of every spec of the
// streams the study, the benchmark and the tenant presets generate, so
// a change to how Generate or a tenant builder computes its stream
// cannot move a byte unseen.
func TestGenerateStreamGolden(t *testing.T) {
	s90, e90 := days(90)
	s14, e14 := days(14)
	for _, tc := range []struct {
		name string
		cfg  Config
		n    int
		hash string
	}{
		{"study/seed1", Config{Seed: 1}, 6280, "a053f67776aceeeb15e62fcf40970192451d00b4bc09a8fdd6cfd6ba88d13857"},
		{"study/seed42", Config{Seed: 42}, 6222, "ff9965de2a8885b281535b796f3d17d8aa0d297ff1756cab281629f09d8a3fe7"},
		{"journaled/seed1", Config{Seed: 1, TotalJobs: 100_000, Start: s90, End: e90}, 100512, "891b47c53d4ae898a7cbf5fb3064cba73700c30104fef4663edccd4b6048f66e"},
		{"journaled/seed7", Config{Seed: 7, TotalJobs: 100_000, Start: s90, End: e90}, 100094, "569ba02d7ebb87c7f769dfc04570bd73c2d18afd4979ca4a59667db030135ef2"},
		{"reopen/seed1", Config{Seed: 1, TotalJobs: 5000, Start: s14, End: e14}, 5134, "2d15023231b34a6f9ba6e85e825e5938e19b3c04f717848ad14da5e56778d91a"},
	} {
		specs := Generate(tc.cfg)
		if got := hashSpecs(specs); len(specs) != tc.n || got != tc.hash {
			t.Errorf("%s: %d specs, sha256 %s; want %d, %s", tc.name, len(specs), got, tc.n, tc.hash)
		}
		// No two specs share an instant, so any order by instant is
		// this one: ties cannot tell sort orders apart here.
		for i := 1; i < len(specs); i++ {
			if specs[i].SubmitTime.Equal(specs[i-1].SubmitTime) {
				t.Errorf("%s: specs %d and %d share the instant %v", tc.name, i-1, i, specs[i].SubmitTime)
			}
		}
	}

	s60, e60 := days(60)
	for _, tc := range []struct {
		scenario string
		cfg      TenantConfig
		n        int
		hash     string
	}{
		{"uniform", TenantConfig{Seed: 1}, 1200, "84f7a1baea12e8a8910d8e79ecbdb4d74a12ccacaf0b055923354006e66d9ba6"},
		{"skewed", TenantConfig{Seed: 1}, 1200, "987cc500a2ea3ed3b7e3ccc92ea0e6351e692f82d4077d9b97f04ca4190aedfa"},
		{"flash-crowd", TenantConfig{Seed: 1}, 1200, "a3d989efaa5d8225669b9d53528d3ee196f58baa8f5ca2f148e3400bf2e898d9"},
		{"priority-inversion", TenantConfig{Seed: 1}, 1198, "2bbdd3704a3d110b3edf67e33de3cbee340cf3367186d6206e56b36073d97c3d"},
		{"skewed", TenantConfig{Seed: 1, Start: s60, End: e60, Tenants: 200, TotalJobs: 20_000}, 20000, "acd10b254f5c8218d162d983b93a6cd1cf9eaa126b5c9d383c28e1fb055a94a0"},
	} {
		sc, err := FindTenantScenario(tc.scenario)
		if err != nil {
			t.Fatal(err)
		}
		bc, subs := sc.Build(tc.cfg)
		if got := hashTenantBuild(bc, subs); len(subs) != tc.n || got != tc.hash {
			t.Errorf("%s, %d tenants: %d submissions, sha256 %s; want %d, %s", tc.scenario, tc.cfg.Tenants, len(subs), got, tc.n, tc.hash)
		}
	}
}
