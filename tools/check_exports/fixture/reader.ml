let twice = 2 * Exports.read
