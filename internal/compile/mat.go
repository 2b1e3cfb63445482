package compile

import "qcloud/internal/circuit"

// Thin aliases over the shared matrix machinery in the circuit package,
// keeping the pass implementations readable.

type mat2 = circuit.Mat2

var identity2 = circuit.Identity2

func gateMat2(g circuit.Gate) (mat2, bool) { return circuit.GateMat2(g) }

func zyzAngles(u mat2) (theta, phi, lambda float64) { return circuit.ZYZAngles(u) }

func normAngle(a float64) float64 { return circuit.NormAngle(a) }
