package promote

// CanaryFrames exposes the canary length to the external tests, which train
// their predictor with internal/experiments and so cannot live in package
// promote.
const CanaryFrames = canaryFrames
