//go:build race

package bench

const raceBuild = true
