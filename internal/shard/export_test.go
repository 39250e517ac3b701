package shard

// BuildEngine exposes the fat-tree fixture to the package's external
// tests, which import the control plane (itself an importer of shard).
var BuildEngine = buildEngine
