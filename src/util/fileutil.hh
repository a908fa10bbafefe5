/**
 * @file
 * Filesystem helpers used by the output layer and the native runner.
 */

#ifndef GEST_UTIL_FILEUTIL_HH
#define GEST_UTIL_FILEUTIL_HH

#include <string>
#include <vector>

namespace gest {

/** Read an entire file into a string; fatal() if unreadable. */
std::string readFile(const std::string& path);

/** @return true if the file exists and could be read into @p out. */
bool tryReadFile(const std::string& path, std::string& out);

/** Write @p contents to @p path, creating parent directories. */
void writeFile(const std::string& path, const std::string& contents);

/** Append @p contents to the existing file @p path. */
void appendFile(const std::string& path, const std::string& contents);

/**
 * Atomically replace @p path with @p contents: write to a sibling
 * temporary file, then rename() over the target, so a concurrent
 * reader sees either the old file or the new one, never a torn write.
 * Used for the run's status.json heartbeat.
 */
void writeFileAtomic(const std::string& path,
                     const std::string& contents);

/** Create a directory (and parents); fatal() on failure. */
void ensureDir(const std::string& path);

/** @return true if @p path names an existing regular file. */
bool fileExists(const std::string& path);

/** @return true if @p path names an existing directory. */
bool dirExists(const std::string& path);

/** List regular-file names (not paths) inside a directory, sorted. */
std::vector<std::string> listFiles(const std::string& dir);

/** List subdirectory names (not paths) inside a directory, sorted. */
std::vector<std::string> listDirs(const std::string& dir);

/** Remove a file or directory tree; no error if absent. */
void removeAll(const std::string& path);

/** Create a unique scratch directory under the system temp dir. */
std::string makeTempDir(const std::string& prefix);

} // namespace gest

#endif // GEST_UTIL_FILEUTIL_HH
