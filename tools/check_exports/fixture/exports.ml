let read = 1
let seam = 2
let unread = seam + 1
