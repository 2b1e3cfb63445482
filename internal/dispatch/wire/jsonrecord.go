package wire

import (
	"encoding/json"
	"fmt"
)

// The JSON record envelope the WAL used before walrecord.go. It is off
// every production path: nothing in internal/ or cmd/ calls it. It
// stays only because bench/probes.go times it as wire.encode_record_ns
// and wire.decode_record_ns, and the change that made the WAL binary
// could not edit bench/. The next change to bench/ re-points those two
// probes at AppendWALRecord and DecodeWALRecord and deletes this file.

// RecSubmit is the envelope's type tag for a submit record.
const RecSubmit = "submit"

// Envelope frames one record: a version, a type tag, and the type's
// own JSON payload.
type Envelope struct {
	V    int             `json:"v"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

// SubmitRec is the submit record's JSON payload.
type SubmitRec struct {
	Seq  int64  `json:"seq"`
	Key  string `json:"key"`
	Spec Spec   `json:"spec"`
}

// EncodeRecord wraps a typed payload in a versioned envelope.
func EncodeRecord(typ string, payload any) ([]byte, error) {
	data, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	return json.Marshal(Envelope{V: Version, Type: typ, Data: data})
}

// DecodeRecord unwraps an envelope, enforcing the version.
func DecodeRecord(raw []byte) (*Envelope, error) {
	var env Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, fmt.Errorf("wire: bad record: %w", err)
	}
	if env.V != Version {
		return nil, fmt.Errorf("wire: record version %d, want %d", env.V, Version)
	}
	return &env, nil
}
